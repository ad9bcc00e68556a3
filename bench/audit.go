package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"recmem"
)

// valueSize is the size of every written value. A value names its register
// and that register's owner, carries the owner's write sequence, a filler
// derived from all three, and a checksum — enough for a reader to tell a
// torn, misrouted, invented or superseded reply from a correct one.
const valueSize = 128

func encodeValue(owner, reg uint32, seq uint64) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint32(v[0:], owner)
	binary.LittleEndian.PutUint32(v[4:], reg)
	binary.LittleEndian.PutUint64(v[8:], seq)
	x := seq*0x9E3779B97F4A7C15 ^ uint64(reg)<<32 ^ uint64(owner) | 1
	for i := 16; i < valueSize-4; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	binary.LittleEndian.PutUint32(v[valueSize-4:], crc32.ChecksumIEEE(v[:valueSize-4]))
	return v
}

func decodeValue(v []byte) (owner, reg uint32, seq uint64, ok bool) {
	if len(v) != valueSize ||
		binary.LittleEndian.Uint32(v[valueSize-4:]) != crc32.ChecksumIEEE(v[:valueSize-4]) {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:]),
		binary.LittleEndian.Uint64(v[8:]), true
}

// regAudit is what every client may know about one register: the owner's
// last submitted sequence and the highest acknowledged one.
type regAudit struct {
	submitted atomic.Uint64
	acked     atomic.Uint64
}

// view is what one client has itself observed of one register: the highest
// sequence and tag witness among its completed operations.
type view struct {
	seq uint64
	tag recmem.Tag
}

// floor is the state a read captured when it was submitted; its reply may
// not be older.
type floor struct {
	seq uint64
	tag recmem.Tag
}

// auditor checks every reply against the register semantics the emulation
// promises (atomicity: a read returns a value no older than any write
// acknowledged, or read returned, before the read began). It needs no
// history search because writes to a register come from its single owner in
// sequence order, so "older" is a comparison of embedded sequences.
type auditor struct {
	owners int
	regs   []regAudit

	mu    []sync.Mutex // one per connection
	views []map[uint32]*view

	firstMu sync.Mutex
	first   []string // the first few violations, for the report
}

// newAuditor audits nregs registers dealt to `owners` writers and read over
// `conns` connections (the writers' own and any read-back ones).
func newAuditor(nregs, owners, conns int) *auditor {
	a := &auditor{owners: owners, regs: make([]regAudit, nregs),
		mu: make([]sync.Mutex, conns), views: make([]map[uint32]*view, conns)}
	for c := range a.views {
		a.views[c] = make(map[uint32]*view)
	}
	return a
}

func (a *auditor) violate(format string, args ...any) {
	a.firstMu.Lock()
	if len(a.first) < 8 {
		a.first = append(a.first, fmt.Sprintf(format, args...))
	}
	a.firstMu.Unlock()
}

func maxStore(v *atomic.Uint64, x uint64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

func (a *auditor) viewOf(c int, reg uint32) *view {
	vw := a.views[c][reg]
	if vw == nil {
		vw = &view{}
		a.views[c][reg] = vw
	}
	return vw
}

// nextSeq reserves the owner's next write sequence for reg. The caller
// submits the write before reserving another for the same register.
func (a *auditor) nextSeq(reg uint32) uint64 { return a.regs[reg].submitted.Add(1) }

// wrote records an acknowledged write.
func (a *auditor) wrote(c int, reg uint32, seq uint64, wit recmem.Tag) {
	maxStore(&a.regs[reg].acked, seq)
	a.observe(c, reg, seq, wit)
}

func (a *auditor) observe(c int, reg uint32, seq uint64, wit recmem.Tag) {
	a.mu[c].Lock()
	vw := a.viewOf(c, reg)
	vw.seq = max(vw.seq, seq)
	if vw.tag.Less(wit) {
		vw.tag = wit
	}
	a.mu[c].Unlock()
}

// beginRead captures what the read's reply must not be older than: every
// write acknowledged to anyone, and everything this client has seen.
func (a *auditor) beginRead(c int, reg uint32) floor {
	a.mu[c].Lock()
	vw := a.viewOf(c, reg)
	f := floor{seq: max(vw.seq, a.regs[reg].acked.Load()), tag: vw.tag}
	a.mu[c].Unlock()
	return f
}

// endRead audits one read reply and reports whether it was correct.
func (a *auditor) endRead(c int, reg uint32, f floor, val []byte, wit recmem.Tag) bool {
	owner, vreg, seq, ok := decodeValue(val)
	switch {
	case !ok:
		a.violate("client %d reg %d: reply of %d bytes fails its checksum", c, reg, len(val))
	case vreg != reg || owner != a.ownerOf(reg):
		a.violate("client %d reg %d: reply belongs to reg %d of owner %d", c, reg, vreg, owner)
	case seq < f.seq:
		a.violate("client %d reg %d: read seq %d older than %d acknowledged before it began", c, reg, seq, f.seq)
	case seq > a.regs[reg].submitted.Load():
		a.violate("client %d reg %d: read seq %d was never submitted", c, reg, seq)
	case !wit.IsZero() && wit.Less(f.tag):
		a.violate("client %d reg %d: tag witness went back from %v to %v", c, reg, f.tag, wit)
	default:
		a.observe(c, reg, seq, wit)
		return true
	}
	return false
}

// ownerOf: registers are dealt to owners round-robin.
func (a *auditor) ownerOf(reg uint32) uint32 { return reg % uint32(a.owners) }
