// Package core implements the paper's register emulations over fair-lossy
// channels and stable storage:
//
//   - CrashStop: the multi-writer/multi-reader atomic emulation of Lynch &
//     Shvartsman [2] (itself a multi-writer extension of ABD [1]), the most
//     efficient robust crash-stop emulation the paper builds on. No logging;
//     crashed processes never recover.
//   - Persistent: Figure 4 — the log-optimal persistent-atomic emulation for
//     the crash-recovery model: 2 causal logs per write (the writer logs the
//     minted timestamp before the second round; replicas log on adoption),
//     1 causal log per read (0 when no concurrent write is observed), and a
//     recovery procedure that finishes the interrupted write.
//   - Transient: Figure 5 — the log-optimal transient-atomic emulation:
//     1 causal log per write (no writer pre-log; the sequence number is
//     advanced by the persisted recovery count), 1 causal log per read, and
//     one extra log per recovery.
//   - Naive: the §I-C straw man — the crash-stop algorithm made
//     crash-recovery-safe by logging every step; used as the ablation
//     baseline showing why minimizing causal logs matters.
//
// Every operation uses two request/acknowledgement rounds (4 communication
// steps), exactly as in [2]: minimizing logs costs no extra messages. The
// one extension beyond the paper is Options.OneRoundReads, which lets a
// read whose majority already agrees on one logged tag skip the write-back
// round (docs/adr/0015).
//
// All algorithms are multi-register: each register name runs an independent
// instance of the protocol multiplexed over the same channels and stable
// store.
//
// Every operation runs through one path, the node's batching + pipelining
// engine (batch.go): concurrent submissions to one register coalesce into a
// single execution, a phase machine (ops.go) the node steps (rounds.go). The
// paper's sequential process is the synchronous Write/Read: a batch of one,
// which costs exactly the paper's messages and logs (docs/adr/0001, 0011,
// 0026).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recmem/internal/causal"
	"recmem/internal/metrics"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/trace"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

// AlgorithmKind selects the emulation algorithm a node runs.
type AlgorithmKind int

// Supported algorithms.
const (
	// CrashStop is the baseline crash-stop atomic emulation [2].
	CrashStop AlgorithmKind = iota + 1
	// Transient is the transient-atomic crash-recovery emulation (Fig. 5).
	Transient
	// Persistent is the persistent-atomic crash-recovery emulation (Fig. 4).
	Persistent
	// Naive is the log-everything crash-recovery adaptation (§I-C).
	Naive
	// RegularSW is the §VI extension: a single-writer/multi-reader regular
	// register in the crash-recovery model. Writes are a single round (2
	// communication steps) with 1 causal log; reads are a single round with
	// no logging at all. Only process RegularWriter may write.
	RegularSW
)

// RegularWriter is the designated writer process of the RegularSW register.
const RegularWriter int32 = 0

// String returns the algorithm name.
func (k AlgorithmKind) String() string {
	switch k {
	case CrashStop:
		return "crash-stop"
	case Transient:
		return "transient"
	case Persistent:
		return "persistent"
	case Naive:
		return "naive"
	case RegularSW:
		return "regular-sw"
	default:
		return fmt.Sprintf("AlgorithmKind(%d)", int(k))
	}
}

// ParseAlgorithm is the inverse of String — the one place an algorithm name
// becomes a kind, shared by the CLIs' -algorithm flags and by drivers reading
// the name a node reports. "regular" is the older CLI spelling of RegularSW.
func ParseAlgorithm(name string) (AlgorithmKind, error) {
	if name == "regular" {
		return RegularSW, nil
	}
	var names []string
	for k := CrashStop; k <= RegularSW; k++ {
		if k.String() == name {
			return k, nil
		}
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("unknown algorithm %q (want one of %s)", name, strings.Join(names, ", "))
}

// Recovers reports whether the algorithm supports crash-recovery.
func (k AlgorithmKind) Recovers() bool { return k != CrashStop }

// protocol is one algorithm's row of the policy table (docs/adr/0025): the
// algorithms are one quorum protocol that differs only here, and every site
// that differs reads a field instead of comparing the algorithm.
type protocol struct {
	durable      bool // replicas log adoptions (Fig. 4 line 24); the process recovers
	preLog       bool // writer pre-log (Fig. 4 line 12); recovery finishes it (lines 40–47)
	recMint      bool // mint sn + rec + 1 (Fig. 5 line 11); recovery bumps rec (lines 16–22)
	everyStep    bool // §I-C: every step logs, one record per store
	singleWriter bool // §VI: no query round, no write-back, safe and regular reads
	oneRound     bool // Options.OneRoundReads, where the row allows it (docs/adr/0015)
	hardened     bool // Options.HardenedTags, on a recMint row (docs/adr/0024)
}

// newProtocol builds kind's row and resolves the Options that change it; no
// other code reads the algorithm's name or those Options.
func newProtocol(kind AlgorithmKind, opts Options) protocol {
	p := protocol{
		durable:      kind.Recovers(),
		preLog:       kind == Persistent || kind == Naive,
		recMint:      kind == Transient || kind == RegularSW,
		everyStep:    kind == Naive,
		singleWriter: kind == RegularSW,
	}
	p.oneRound = opts.OneRoundReads && !p.everyStep && !p.singleWriter
	p.hardened = opts.HardenedTags && p.recMint
	return p
}

// Options tunes a node beyond the algorithm choice.
type Options struct {
	// RetransmitEvery is the resend period for unacknowledged rounds over
	// the fair-lossy channels (default 25 ms).
	RetransmitEvery time.Duration
	// HardenedTags makes Transient and RegularSW, the rows that mint with the
	// persisted recovery counter (recMint, docs/adr/0025), append it to the
	// timestamp as a final lexicographic tiebreak, closing the tag-collision
	// window of the literal Figure 5 (docs/adr/0024). It does not close that
	// ADR's orphan window; the other rows ignore it. Off by default: the
	// default is the paper's algorithm.
	HardenedTags bool
	// OneRoundReads lets an atomic read return after its query round when
	// every acknowledgement of the majority it heard carries the same full
	// tag (Seq, Writer, Rec): the value is then already logged at a majority
	// — each replica stored written/<reg> before it adopted the tag it
	// reports, and a process's durable tag only grows across crashes — which
	// is exactly the post-condition of the write-back round, so the round is
	// skipped: 2 communication steps, n messages, no log (docs/adr/0015).
	// Any disagreement falls back to the write-back, which is when the
	// paper's reader would have caused a log. It sets the row's oneRound
	// (docs/adr/0025) for CrashStop, Transient and Persistent; Naive
	// (everyStep) and RegularSW (singleWriter: already one round) ignore it. Off
	// by default: the default is the paper's algorithm, which Figure 6
	// measures; recmem-node always sets it because the deployed-shape
	// benchmark measured it (docs/adr/0015, Measured).
	OneRoundReads bool
}

// Deps wires a node to its substrate.
type Deps struct {
	// Endpoint attaches the node to the network.
	Endpoint transport.Endpoint
	// Storage is the node's stable store; it must survive the node's
	// crashes (the harness keeps it across Crash/Recover).
	Storage stable.Storage
	// IDs is the shared generator for operation and round identifiers; all
	// nodes of a cluster must share one so identifiers are globally unique.
	IDs *atomic.Uint64
	// LogMeter, if non-nil, receives causal-log accounting.
	LogMeter *causal.Meter
	// MsgMeter, if non-nil, receives per-operation round/message accounting.
	MsgMeter *metrics.OpMeter
	// Trace, if non-nil, receives protocol events (sends, deliveries,
	// stores, crashes, recoveries) for post-mortem analysis.
	Trace *trace.Ring
}

// Node errors.
var (
	// ErrCrashed is returned by an operation interrupted by the process's
	// crash; the invocation remains pending in the history.
	ErrCrashed = errors.New("core: process crashed during operation")
	// ErrDown is returned when an operation is invoked on a crashed or
	// recovering process.
	ErrDown = errors.New("core: process is down")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: node closed")
	// ErrCannotRecover is returned by Recover on a crash-stop node.
	ErrCannotRecover = errors.New("core: crash-stop process cannot recover")
	// ErrNotDown is returned by Recover on a process that is not crashed.
	ErrNotDown = errors.New("core: process is not crashed")
	// ErrNotWriter is returned by Write on a RegularSW process other than
	// the designated single writer.
	ErrNotWriter = errors.New("core: not the designated writer of the single-writer register")
)

// nodeState is the lifecycle state of a node.
type nodeState int

const (
	stateUp nodeState = iota + 1
	stateDown
	stateRecovering
	stateClosed
)

// regState is the volatile per-register state of Figure 4: the current value
// and its timestamp. Lost on crash, restored from stable storage at
// recovery.
type regState struct {
	tag tag.Tag
	val []byte
}

// Node is one process of the emulation: a message listener (the paper's
// listener thread) plus sequentially invoked client operations.
type Node struct {
	proc // the row, with opts resolved into it, and the process's id, n, quorum
	kind AlgorithmKind
	opts Options

	ep  transport.Endpoint
	st  stable.Storage
	ids *atomic.Uint64
	lm  *causal.Meter
	mm  *metrics.OpMeter
	tr  *trace.Ring

	// opMu serializes the synchronous Write/Read calls — the paper's
	// processes are sequential — around their submit + wait.
	opMu sync.Mutex

	mu    sync.Mutex
	state nodeState
	epoch uint64
	// inc is the incarnation epoch (docs/adr/0006), minted at every recovery
	// and persisted, so two boots never share one — unlike epoch, the
	// volatile crash generation. Crash keeps it: it is harness bookkeeping
	// for remote observers, never protocol state.
	inc uint64
	// regs is the volatile register map: entries appear on adoption and on
	// lazy materialization from the written/ record (regView), never by a
	// recovery-time rebuild (docs/adr/0009). Crash wipes it.
	regs         map[string]regState
	rec          int32 // volatile copy of the persisted recovery counter
	lastRecovery RecoveryStats
	// execs holds the live executions (rounds.go) by the RPC their requests
	// carry; execPool recycles them.
	execs    map[uint64]*execution
	execPool sync.Pool

	// refs holds the register handles (RegisterRef), each its register's
	// submission queue; ob group-commits the executions' broadcasts into
	// batch frames.
	refsMu sync.Mutex
	refs   map[string]*RegisterRef
	ob     *outbox

	// readsOne counts the read executions proto.oneRound completed after one
	// round, readsTwo those that ran the write-back (ReadRounds).
	readsOne, readsTwo atomic.Uint64

	// adopter is the node's logger and its one store path (listener.go);
	// logGroups and logRecords count its StoreBatch calls and their records.
	adopter               adopter
	logGroups, logRecords atomic.Uint64

	listenerDone chan struct{}
}

// NewNode creates and starts a node. id must be in [0,n); quorum is the
// majority ⌈(n+1)/2⌉.
func NewNode(id int32, n int, kind AlgorithmKind, opts Options, deps Deps) (*Node, error) {
	if n <= 0 || id < 0 || int(id) >= n {
		return nil, fmt.Errorf("core: invalid id %d for n=%d", id, n)
	}
	if kind < CrashStop || kind > RegularSW {
		return nil, fmt.Errorf("core: unknown algorithm %d", int(kind))
	}
	if deps.Endpoint == nil || deps.IDs == nil {
		return nil, errors.New("core: endpoint and id generator are required")
	}
	proto := newProtocol(kind, opts)
	if proto.durable && deps.Storage == nil {
		return nil, fmt.Errorf("core: %v algorithm requires stable storage", kind)
	}
	if opts.RetransmitEvery <= 0 {
		opts.RetransmitEvery = 25 * time.Millisecond
	}
	nd := &Node{
		proc:         proc{proto: proto, id: id, n: n, quorum: (n + 2) / 2}, // ⌈(n+1)/2⌉
		kind:         kind,
		opts:         opts,
		ep:           deps.Endpoint,
		st:           deps.Storage,
		ids:          deps.IDs,
		lm:           deps.LogMeter,
		mm:           deps.MsgMeter,
		tr:           deps.Trace,
		state:        stateUp,
		regs:         make(map[string]regState),
		execs:        make(map[uint64]*execution),
		refs:         make(map[string]*RegisterRef),
		listenerDone: make(chan struct{}),
	}
	// The boot's incarnation epoch: one past the last persisted (1 on empty
	// storage). Only recoveries persist one (mintIncarnation), so an
	// un-recovered boot may reuse it — it never exposed another.
	nd.inc = 1
	if deps.Storage != nil {
		prev, err := loadIncarnation(deps.Storage)
		if err != nil {
			return nil, err
		}
		nd.inc = prev + 1
	}
	nd.ob = &outbox{nd: nd}
	nd.ob.owner = nd.ob
	nd.adopter.nd, nd.adopter.owner = nd, &nd.adopter
	nd.execPool.New = func() any { return &execution{nd: nd, exec: exec{acks: make([]wire.Envelope, n)}} }
	go nd.listen()
	return nd, nil
}

// ID returns the process id.
func (nd *Node) ID() int32 { return nd.id }

// N returns the number of processes in the emulation.
func (nd *Node) N() int { return nd.n }

// Quorum returns the majority size ⌈(n+1)/2⌉.
func (nd *Node) Quorum() int { return nd.quorum }

// Algorithm returns the algorithm the node runs.
func (nd *Node) Algorithm() AlgorithmKind { return nd.kind }

// Up reports whether the node currently accepts client operations.
func (nd *Node) Up() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.state == stateUp
}

// RegisterState returns the node's view of a register — the paper's v and
// sn — for tests and demos, materialized on first touch like the protocol
// paths; ok reports whether the register holds any adopted state. A down
// node reports nothing; a closed one reports the view it held at Close.
func (nd *Node) RegisterState(reg string) (tag.Tag, []byte, bool) {
	nd.mu.Lock()
	rs, ok := nd.regs[reg]
	serving := nd.servingLocked()
	nd.mu.Unlock()
	if !ok && serving {
		var err error
		if rs, _, err = nd.regView(reg); err != nil {
			return tag.Tag{}, nil, false
		}
	} else if !ok {
		return tag.Tag{}, nil, false
	}
	return rs.tag, rs.val, !rs.tag.IsZero() || rs.val != nil
}

// regView returns the node's view of one register, materializing the map
// entry from its written/ record on first touch (docs/adr/0009). The load
// happens off nd.mu; a crash while loading discards it (the epoch re-check).
// The returned epoch is the one the view is valid under.
func (nd *Node) regView(reg string) (regState, uint64, error) {
	nd.mu.Lock()
	if !nd.servingLocked() {
		closed := nd.state == stateClosed
		nd.mu.Unlock()
		if closed {
			return regState{}, 0, ErrClosed
		}
		return regState{}, 0, ErrDown
	}
	epoch := nd.epoch
	if rs, ok := nd.regs[reg]; ok {
		nd.mu.Unlock()
		return rs, epoch, nil
	}
	if nd.st == nil || !nd.proto.durable {
		// No written/ record can exist, so the zero state is definitive.
		// Not inserted: map presence stays "this incarnation adopted or
		// loaded it", and the crash-stop baseline keeps its paper shape.
		nd.mu.Unlock()
		return regState{}, epoch, nil
	}
	nd.mu.Unlock()

	var rs regState
	data, ok, err := nd.st.Retrieve(recWrittenPrefix + reg)
	if err != nil {
		return regState{}, 0, err
	}
	if ok {
		t, v, err := decodeTagged(data)
		if err != nil {
			return regState{}, 0, err
		}
		rs = regState{tag: t, val: v}
	}

	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.epoch != epoch || !nd.servingLocked() {
		return regState{}, 0, nd.downErrLocked()
	}
	if cur, ok := nd.regs[reg]; ok {
		// An adoption or another load beat this one; its view is at least as
		// fresh. Adopters materialize the entry before their store begins,
		// so a load never inserts a record whose store has not returned.
		return cur, epoch, nil
	}
	nd.regs[reg] = rs
	return rs, epoch, nil
}

// IncarnationEpoch returns the node's current incarnation epoch: a counter
// that is 1 on a node's first-ever boot and strictly increases across every
// recovery — including recoveries of a fresh process restarted over old
// stable storage. See docs/adr/0006.
func (nd *Node) IncarnationEpoch() uint64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.inc
}

// ReadRounds reports how many read executions OneRoundReads completed after
// one round (the majority agreed) and how many ran the write-back round.
// RegularSW reads, one round by definition, are in neither count. A coalesced
// batch of reads is one execution.
func (nd *Node) ReadRounds() (one, two uint64) {
	return nd.readsOne.Load(), nd.readsTwo.Load()
}

// Adoptions reports how many StoreBatch calls this node's logger made and how
// many records they carried — every store of the node. Records per group is
// its group-commit ratio (docs/adr/0017, 0019).
func (nd *Node) Adoptions() (groups, records uint64) {
	return nd.logGroups.Load(), nd.logRecords.Load()
}

// RecoveryCount returns the volatile copy of the persisted recovery counter
// (transient algorithm).
func (nd *Node) RecoveryCount() int32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.rec
}

// RecoveryStats summarizes what the last completed recovery procedure did
// (docs/adr/0009).
type RecoveryStats struct {
	// PendingWrites is the number of writing/ pre-log records the recovery
	// scan found and finished (persistent/naive; always 0 for the others).
	PendingWrites int
	// RecoveryCount is the persisted recovery counter after its recovery
	// bump (transient/regular-sw; 0 for the others).
	RecoveryCount int32
}

// LastRecovery returns the stats of the node's most recent recovery
// procedure (the zero value before any recovery completed).
func (nd *Node) LastRecovery() RecoveryStats {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.lastRecovery
}

// Crash makes the process fail: volatile state is wiped, in-flight
// operations end with ErrCrashed, and the node stops participating until
// Recover. onEvent, if non-nil, runs inside the transition, so the harness
// records the crash ordered with the operation events. It returns false if
// the node was already down or closed.
func (nd *Node) Crash(onEvent func()) bool {
	var done []completion
	nd.mu.Lock()
	ok := nd.state == stateUp || nd.state == stateRecovering
	if ok {
		nd.crashLocked("crash", "volatile state wiped", onEvent, &done)
	}
	nd.mu.Unlock()
	fire(done)
	return ok
}

// crashLocked is the one transition into the crashed state, shared by Crash
// and a failed recovery: a new epoch, every live execution ended (their
// completions join done), the volatile state wiped, the logger's queue
// dropped, then the trace event and onEvent. Caller holds nd.mu.
func (nd *Node) crashLocked(event, detail string, onEvent func(), done *[]completion) {
	nd.state = stateDown
	nd.epoch++
	nd.failExecs(done)
	nd.regs = make(map[string]regState)
	nd.rec = 0
	nd.adopter.drop()
	nd.traceEvent(event, detail)
	if onEvent != nil {
		onEvent()
	}
}

// Recover brings a crashed process back: stable state is reloaded and the
// algorithm's recovery procedure runs (Fig. 4: finish the interrupted writes
// with a majority; Fig. 5: increment and persist the recovery counter).
// onEvent runs inside the transition out of the crashed state; onAbort, also
// under the state lock, if the procedure fails and the process falls back to
// the crashed state, so the harness's history stays well-formed. Recover
// blocks until a majority is reachable — the model's "eventually a majority
// permanently up" — and can be retried after a failure; a crash mid-recovery
// makes it return ErrCrashed.
func (nd *Node) Recover(ctx context.Context, onEvent, onAbort func()) error {
	if !nd.proto.durable {
		return ErrCannotRecover
	}
	nd.mu.Lock()
	if nd.state == stateClosed {
		nd.mu.Unlock()
		return ErrClosed
	}
	if nd.state != stateDown {
		nd.mu.Unlock()
		return ErrNotDown
	}
	// Restore the eager slice of volatile state — just the recovery counter
	// — while still unreachable (handlers drop messages until the state
	// flips to recovering). The register map starts empty and materializes
	// lazily per register (regView), so this step is O(1) in the namespace.
	rec, err := nd.restoreCounter()
	if err != nil {
		nd.mu.Unlock()
		return err
	}
	nd.regs = make(map[string]regState)
	nd.rec = rec
	nd.state = stateRecovering
	epoch := nd.epoch
	nd.traceEvent("recover", fmt.Sprintf("rec=%d restored, register map lazy", rec))
	if onEvent != nil {
		onEvent()
	}
	nd.mu.Unlock()

	stats, err := nd.runRecoveryProcedure(ctx, epoch)
	if err != nil {
		// The procedure could not complete (no reachable majority, storage
		// fault, cancellation): fall back to the crashed state so Recover
		// can be retried.
		var done []completion
		nd.mu.Lock()
		if nd.state == stateRecovering && nd.epoch == epoch {
			nd.crashLocked("recover-abort", err.Error(), onAbort, &done)
		}
		nd.mu.Unlock()
		fire(done)
		return err
	}

	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.state != stateRecovering || nd.epoch != epoch {
		return ErrCrashed
	}
	// Only a recovery that finished publishes what it did: the recovery
	// count (0 but for Fig. 5's algorithms, as restoreCounter left it) and
	// the stats.
	nd.state, nd.rec, nd.lastRecovery = stateUp, stats.RecoveryCount, stats
	return nil
}

// Close permanently shuts the node down. It does not touch stable storage.
func (nd *Node) Close() {
	var done []completion
	nd.mu.Lock()
	if nd.state != stateClosed {
		nd.state = stateClosed
		nd.epoch++
		nd.failExecs(&done)
		nd.adopter.drop()
	}
	nd.mu.Unlock()
	fire(done)
}

// newID returns a fresh cluster-unique identifier.
func (nd *Node) newID() uint64 { return nd.ids.Add(1) }

// traceEvent records an event to the trace ring, if one is attached.
func (nd *Node) traceEvent(kind, detail string) {
	if nd.tr != nil {
		nd.tr.Add(nd.id, kind, detail)
	}
}

// recordLog reports one store to the causal meter; op 0 is the harness's
// own bookkeeping, not a causal log, and is not reported. The logger's
// commitGroup is its one caller.
func (nd *Node) recordLog(op uint64, depth, bytes int) {
	if nd.lm != nil && op != 0 {
		nd.lm.RecordLog(op, depth, bytes)
	}
}

// recordRound reports one completed round to the message meter.
func (nd *Node) recordRound(op uint64, sends, retransmissions int) {
	if nd.mm != nil {
		nd.mm.RecordRound(op, sends, retransmissions)
	}
}
