// Package stable models the paper's stable storage: every process owns a
// store that survives its crashes, accessed through the primitives store and
// retrieve (§II). There are two engines:
//
//   - MemDisk ("mem"): an in-memory crash-survivable store with a
//     configurable synchronous write latency — the paper's λ (logging a few
//     bytes on their IDE disks costs ≈ 0.2 ms, about twice a message transit)
//     plus a bandwidth term for the payload-size experiment (Fig. 6 bottom).
//   - ShardedDisk (sharded.go), the durable log engine behind two backend
//     names: CRC-framed append-only segment chains that commit on the
//     caller's goroutine — a call's records for one shard are one append and
//     one fdatasync — background compaction into an indexed snapshot so
//     reopening reads offsets instead of values, and tombstoned deletes
//     (Deleter). "wal" is its one-shard preset — a lone Store is one append +
//     one fdatasync, the paper's "file written to disk synchronously so that
//     the operating system writes the data to disk immediately instead of
//     buffering" (buffering would violate even transient atomicity); a
//     k-record batch is still one append + one sync, and every touched value
//     stays in memory. "sharded" is its eight-shard preset with LRU value
//     eviction, so the resident set is bounded independently of the
//     namespace (docs/adr/0012). The engine does not gather concurrent
//     callers: a node's logger hands it whole groups (docs/adr/0019).
//
// The model only asks that a store is durable before it is acknowledged, not
// how the directory is laid out; the one-file-per-record backend that used to
// sit beside the log engine is retired (docs/adr/0016), and the log engine
// refuses a directory that still holds its files.
//
// Records are named; register emulations use one record per role per
// register ("written/x", "writing/x", "recovered"). Both engines expose the
// batched durability path StoreBatch.
package stable

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"recmem/internal/spin"
)

// Record is one named entry of the batched durability path.
type Record struct {
	// Name is the record name, as in Store.
	Name string
	// Data is the content stored under Name.
	Data []byte
}

// Storage is the paper's stable storage abstraction.
type Storage interface {
	// Store durably saves data under the record name, replacing any previous
	// content. It returns only after the data is stable (synchronous write).
	Store(record string, data []byte) error
	// StoreBatch durably saves all records as one group: it returns nil only
	// after every record is stable. Both engines pay the synchronous-write
	// cost once for the whole batch (one fdatasync per ShardedDisk shard,
	// MemDisk's simulated one). When a batch contains several records with the same
	// name, the last one wins. On error none of the batch is acknowledged —
	// individual records may or may not have become durable.
	StoreBatch(recs []Record) error
	// Retrieve returns the last stored content of the record. ok is false if
	// the record was never stored.
	Retrieve(record string) (data []byte, ok bool, err error)
	// Records returns the names of all stored records with the given prefix,
	// sorted. Recovery uses it to enumerate the registers it must restore.
	Records(prefix string) ([]string, error)
	// Close releases resources. The stored content remains retrievable by a
	// new Storage opened over the same substrate (MemDisk: same object;
	// ShardedDisk: same directory).
	Close() error
}

// Scanner is the optional streaming-enumeration extension of Storage: Scan
// invokes fn once for every stored record whose name has the given prefix,
// without ever materializing the full name list — at a million registers the
// difference between O(pending) and O(namespace) restarts (docs/adr/0009).
// Enumeration order is unspecified. Implementations stream while holding
// internal locks, so fn must not call back into the same store (accumulate
// names and Retrieve after the scan instead). If fn returns an error the
// scan stops and Scan returns that error.
type Scanner interface {
	Scan(prefix string, fn func(name string) error) error
}

// ScanRecords streams the names of every record with the given prefix to fn:
// natively when the engine implements Scanner, else via a one-shot Records
// enumeration — the adapter that lets callers (core recovery) depend only on
// the streaming shape while every engine keeps working. The Scanner
// constraint on fn applies either way.
func ScanRecords(s Storage, prefix string, fn func(name string) error) error {
	if sc, ok := s.(Scanner); ok {
		return sc.Scan(prefix, fn)
	}
	names, err := s.Records(prefix)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := fn(name); err != nil {
			return err
		}
	}
	return nil
}

// sortedScan is Records built on an engine's Scan: every name the scan
// streams, sorted.
func sortedScan(sc Scanner, prefix string) ([]string, error) {
	var out []string
	if err := sc.Scan(prefix, func(name string) error {
		out = append(out, name)
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// ErrClosed is returned by operations on a closed storage.
var ErrClosed = errors.New("stable: storage closed")

// ErrNoDelete is returned by Delete wrappers over a backend that has no
// register lifecycle (no tombstones).
var ErrNoDelete = errors.New("stable: backend does not support delete")

// Deleter is the optional register-lifecycle extension of Storage: Delete
// durably removes a record, so Retrieve reports it absent and Records stops
// enumerating it. On log-structured engines deletion appends a tombstone
// whose dead bytes compaction later reclaims.
type Deleter interface {
	Delete(record string) error
}

// Backends lists the selectable storage engines, in presentation order.
func Backends() []string { return []string{"mem", "wal", "sharded"} }

// ValidBackend reports whether name selects a storage engine — the shared
// flag validation of the CLIs.
func ValidBackend(name string) bool {
	for _, b := range Backends() {
		if name == b {
			return true
		}
	}
	return false
}

// OpenBackend opens the named storage engine: "mem" (or "") is a MemDisk
// with the given latency profile; "wal" and "sharded" are the one-shard and
// the eight-shard preset of ShardedDisk, rooted at dir. This is the only
// place a name turns into an engine: the cluster, the node, the benchmarks
// and the torture driver all call it, so every layer accepts the same -disk
// names.
func OpenBackend(backend, dir string, prof Profile) (Storage, error) {
	switch backend {
	case "", "mem":
		return NewMemDisk(prof), nil
	case "wal":
		return openEngine(dir, walPreset)
	case "sharded":
		return openEngine(dir, shardedPreset)
	default:
		return nil, fmt.Errorf("stable: unknown backend %q (want mem, wal, or sharded)", backend)
	}
}

// Profile describes the latency of a simulated disk.
type Profile struct {
	// StoreDelay is charged per Store call (the paper's λ ≈ 200 µs for a
	// small synchronous write).
	StoreDelay time.Duration
	// BytesPerSec is the streaming bandwidth for the payload; 0 = infinite.
	BytesPerSec float64
}

// DiskProfile returns the profile calibrated to the paper's testbed: a
// synchronous small write costs about twice a 0.1 ms message transit, and
// large writes stream at IDE-era disk bandwidth.
func DiskProfile() Profile {
	return Profile{StoreDelay: 200 * time.Microsecond, BytesPerSec: 30e6}
}

func (p Profile) delay(size int) time.Duration {
	d := p.StoreDelay
	if p.BytesPerSec > 0 {
		d += time.Duration(float64(size) / p.BytesPerSec * float64(time.Second))
	}
	return d
}

// MemDisk is an in-memory Storage with simulated synchronous-write latency.
// It survives process crashes by construction: the harness keeps the MemDisk
// while wiping the process's volatile state, exactly the paper's model where
// stable storage outlives the process.
type MemDisk struct {
	prof Profile

	mu      sync.Mutex
	records map[string][]byte
	closed  bool
}

var _ Storage = (*MemDisk)(nil)

// NewMemDisk returns an empty in-memory store with the given latency
// profile.
func NewMemDisk(prof Profile) *MemDisk {
	return &MemDisk{prof: prof, records: make(map[string][]byte)}
}

// Store implements Storage: a single-record group.
func (d *MemDisk) Store(record string, data []byte) error {
	return d.StoreBatch([]Record{{Name: record, Data: data}})
}

// StoreBatch implements Storage with a simulated group commit: the batch
// pays one StoreDelay (one "fsync") plus the bandwidth term for the combined
// payload, instead of one StoreDelay per record — the simulated-disk
// counterpart of ShardedDisk's one fdatasync per batch, which is what lets
// the fsync-amortization experiments run on the calibrated in-memory
// testbed. The wait runs off the lock, so concurrent readers proceed, and
// uses spin.Sleep: λ ≈ 200 µs is far below time.Sleep granularity on many
// kernels, and the Figure 6 reproduction depends on its fidelity.
func (d *MemDisk) StoreBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	total := 0
	for _, r := range recs {
		total += len(r.Data)
	}
	if delay := d.prof.delay(total); delay > 0 {
		spin.Sleep(delay)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	for _, r := range recs {
		cp := make([]byte, len(r.Data))
		copy(cp, r.Data)
		d.records[r.Name] = cp
	}
	return nil
}

// Retrieve implements Storage.
func (d *MemDisk) Retrieve(record string) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, ErrClosed
	}
	data, ok := d.records[record]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, true, nil
}

// Records implements Storage: Scan's names, sorted.
func (d *MemDisk) Records(prefix string) ([]string, error) {
	return sortedScan(d, prefix)
}

// Scan implements Scanner: the record map streams under the store lock in
// map order, so fn must not call back into the store.
func (d *MemDisk) Scan(prefix string, fn func(string) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	for name := range d.records {
		if strings.HasPrefix(name, prefix) {
			if err := fn(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements Storage. A closed MemDisk can be reopened with Reopen,
// preserving content (modelling a machine reboot).
func (d *MemDisk) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return nil
}

// Reopen makes a closed MemDisk usable again with its content intact.
func (d *MemDisk) Reopen() {
	d.mu.Lock()
	d.closed = false
	d.mu.Unlock()
}

// Counting wraps a Storage and counts operations; tests use it to assert
// log-complexity invariants independently of the protocol-level causal
// meter.
type Counting struct {
	inner Storage

	mu          sync.Mutex
	stores      int
	batches     int
	commits     int
	retrieves   int
	deletes     int
	scans       int
	lists       int
	bytes       int64
	perRecord   map[string]int
	perRetrieve map[string]int
}

var _ Storage = (*Counting)(nil)
var _ Scanner = (*Counting)(nil)

// NewCounting wraps inner with counters.
func NewCounting(inner Storage) *Counting {
	return &Counting{
		inner:       inner,
		perRecord:   make(map[string]int),
		perRetrieve: make(map[string]int),
	}
}

// Store implements Storage.
func (c *Counting) Store(record string, data []byte) error {
	c.mu.Lock()
	c.stores++
	c.commits++
	c.bytes += int64(len(data))
	c.perRecord[record]++
	c.mu.Unlock()
	return c.inner.Store(record, data)
}

// StoreBatch implements Storage: every record counts as one store (so store
// counts stay comparable across batched and unbatched paths) and the batch
// itself is counted once.
func (c *Counting) StoreBatch(recs []Record) error {
	c.mu.Lock()
	c.batches++
	c.commits++
	for _, r := range recs {
		c.stores++
		c.bytes += int64(len(r.Data))
		c.perRecord[r.Name]++
	}
	c.mu.Unlock()
	return c.inner.StoreBatch(recs)
}

// Retrieve implements Storage.
func (c *Counting) Retrieve(record string) ([]byte, bool, error) {
	c.mu.Lock()
	c.retrieves++
	c.perRetrieve[record]++
	c.mu.Unlock()
	return c.inner.Retrieve(record)
}

// Records implements Storage, counting the full-materialization enumeration
// (see Lists) — the call lazy recovery must never make.
func (c *Counting) Records(prefix string) ([]string, error) {
	c.mu.Lock()
	c.lists++
	c.mu.Unlock()
	return c.inner.Records(prefix)
}

// Scan implements Scanner: the call is counted, then streamed from the inner
// store via ScanRecords (so engines without a native Scan still enumerate
// through the adapter).
func (c *Counting) Scan(prefix string, fn func(string) error) error {
	c.mu.Lock()
	c.scans++
	c.mu.Unlock()
	return ScanRecords(c.inner, prefix, fn)
}

// Delete implements Deleter by delegating to the inner storage, counting the
// call; ErrNoDelete if the inner storage has no lifecycle support.
func (c *Counting) Delete(record string) error {
	d, ok := c.inner.(Deleter)
	if !ok {
		return ErrNoDelete
	}
	c.mu.Lock()
	c.deletes++
	c.mu.Unlock()
	return d.Delete(record)
}

// Close implements Storage.
func (c *Counting) Close() error { return c.inner.Close() }

// Stores returns the number of Store calls observed.
func (c *Counting) Stores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stores
}

// Batches returns the number of StoreBatch calls observed.
func (c *Counting) Batches() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}

// Commits returns the number of durability points observed: one per Store
// call plus one per StoreBatch call. ShardedDisk may merge many commits into
// one fdatasync — compare with its Syncs counter to read off the
// amortization.
func (c *Counting) Commits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits
}

// Retrieves returns the number of Retrieve calls observed.
func (c *Counting) Retrieves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retrieves
}

// Bytes returns the total bytes passed to Store.
func (c *Counting) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// RecordStores returns the number of Store calls for one record name.
func (c *Counting) RecordStores(record string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perRecord[record]
}

// Scans returns the number of streaming Scan calls observed.
func (c *Counting) Scans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scans
}

// Lists returns the number of Records calls observed — the
// full-materialization enumerations that the streaming path exists to avoid.
func (c *Counting) Lists() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lists
}

// PrefixRetrieves returns the number of Retrieve calls whose record name has
// the given prefix. The lazy-recovery guarantee is checked with it: a restart
// may Retrieve its pending writing/ records and its counters, but zero
// written/ register records (docs/adr/0009).
func (c *Counting) PrefixRetrieves(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for name, count := range c.perRetrieve {
		if strings.HasPrefix(name, prefix) {
			n += count
		}
	}
	return n
}

// Deletes returns the number of Delete calls observed.
func (c *Counting) Deletes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deletes
}
