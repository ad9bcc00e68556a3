// Package recmem robustly emulates shared memory — multi-writer multi-reader
// read/write registers — on top of an asynchronous message-passing system in
// which every process may crash and recover, after Guerraoui & Levy, "Robust
// Emulations of Shared Memory in a Crash-Recovery Model" (ICDCS 2004).
//
// Three emulations are provided:
//
//   - PersistentAtomic (the paper's Figure 4): atomicity persists through
//     crashes. Log-optimal: 2 causal logs per write, 1 per read (0 when no
//     concurrent write is observed).
//   - TransientAtomic (Figure 5): atomicity may be transiently relaxed when
//     a writer crashes mid-write — the unfinished write can appear to
//     overlap the writer's next write. Log-optimal: 1 causal log per write
//     and per read, plus one log per recovery.
//   - CrashStop: the Lynch-Shvartsman crash-stop baseline the paper builds
//     on — no logging, but crashed processes may never return.
//
// All three use 4 communication steps per operation and tolerate any number
// of crashes as long as a majority of processes is eventually up (crash-stop:
// a permanent majority of correct processes).
//
// A cluster simulates its processes in-process over a configurable fair-lossy
// network and per-process stable storage; every run records a history that
// can be verified against the matching consistency criterion.
//
// All operations go through the backend-agnostic Client interface and its
// first-class Register handles. The simulated cluster's processes implement
// Client; so does remote.Client, a TCP connection to a live recmem-node
// (cmd/recmem-node) — the same application code runs against either.
//
// Quickstart:
//
//	c, err := recmem.New(5, recmem.PersistentAtomic)
//	if err != nil { ... }
//	defer c.Close()
//	x := c.Process(0).Register("x")
//	err = x.Write(ctx, []byte("hello"))
//	val, err := c.Process(1).Register("x").Read(ctx)
//	err = c.Process(0).Crash(ctx)
//	err = c.Process(0).Recover(ctx)
//	err = c.Verify() // checks the recorded history
package recmem

import (
	"context"
	"fmt"
	"sync"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/causal"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/metrics"
	"recmem/internal/netsim"
	"recmem/internal/stable"
)

// Algorithm selects the register emulation.
type Algorithm int

// Supported emulation algorithms.
const (
	// CrashStop is the no-logging baseline for the crash-stop model.
	CrashStop Algorithm = iota + 1
	// TransientAtomic is the 1-causal-log-per-write emulation (Fig. 5).
	TransientAtomic
	// PersistentAtomic is the 2-causal-logs-per-write emulation (Fig. 4).
	PersistentAtomic
	// NaiveLogging is the log-every-step straw man (§I-C), kept as an
	// ablation baseline.
	NaiveLogging
	// RegularRegister is the §VI extension: a single-writer/multi-reader
	// regular register — writes are one round with 1 causal log, reads are
	// one round with no logging. Only process 0 may write.
	RegularRegister
)

// String returns the algorithm name.
func (a Algorithm) String() string { return a.kind().String() }

func (a Algorithm) kind() core.AlgorithmKind {
	switch a {
	case CrashStop:
		return core.CrashStop
	case TransientAtomic:
		return core.Transient
	case PersistentAtomic:
		return core.Persistent
	case NaiveLogging:
		return core.Naive
	case RegularRegister:
		return core.RegularSW
	default:
		return 0
	}
}

// Criterion is a consistency criterion for Verify.
type Criterion int

// Supported criteria (§III of the paper).
const (
	// Linearizability is atomicity for crash-free (crash-stop) histories.
	Linearizability Criterion = iota + 1
	// PersistentAtomicity requires atomicity to persist through crashes.
	PersistentAtomicity
	// TransientAtomicity allows a crashed write to overlap the writer's
	// next write.
	TransientAtomicity
	// Regularity is single-writer regularity (§VI): reads return the last
	// completed or any concurrent write; new-old inversion is allowed.
	Regularity
	// Safety is single-writer safety (§VI): only reads not concurrent with
	// a write are constrained.
	Safety
)

// String returns the criterion name.
func (c Criterion) String() string { return c.mode().String() }

func (c Criterion) mode() atomicity.Mode {
	switch c {
	case Linearizability:
		return atomicity.Linearizable
	case PersistentAtomicity:
		return atomicity.Persistent
	case TransientAtomicity:
		return atomicity.Transient
	case Regularity:
		return atomicity.Regular
	case Safety:
		return atomicity.Safe
	default:
		return 0
	}
}

// Re-exported sentinel errors.
var (
	// ErrCrashed is returned by an operation interrupted by its process's
	// crash; the operation may or may not have taken effect.
	ErrCrashed = core.ErrCrashed
	// ErrDown is returned when invoking an operation on a crashed process
	// (and by Crash on a process that is already down).
	ErrDown = core.ErrDown
	// ErrNotDown is returned by Recover on a process that is not crashed.
	ErrNotDown = core.ErrNotDown
	// ErrCannotRecover is returned by Recover under the CrashStop algorithm.
	ErrCannotRecover = core.ErrCannotRecover
	// ErrNotWriter is returned by Write at a process other than process 0
	// under the RegularRegister algorithm.
	ErrNotWriter = core.ErrNotWriter
)

// config collects option state.
type config struct {
	node        core.Options
	net         netsim.Options
	disk        stable.Profile
	diskBackend string
	diskDir     string
}

// Option customizes a cluster.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithLAN simulates the paper's measurement testbed: a 100 Mb/s LAN with
// ≈ 0.1 ms one-way transit and synchronous disk logging at ≈ 0.2 ms. Without
// it the simulated network and disks are instantaneous, which is what tests
// want.
func WithLAN() Option {
	return optionFunc(func(c *config) {
		c.net.Profile = netsim.LANProfile()
		c.disk = stable.DiskProfile()
	})
}

// WithNetwork sets the simulated network latency: one-way propagation delay,
// uniform jitter bound, and bandwidth in bytes per second (0 = infinite).
func WithNetwork(propagation, jitter time.Duration, bytesPerSec float64) Option {
	return optionFunc(func(c *config) {
		c.net.Profile.Propagation = propagation
		c.net.Profile.Jitter = jitter
		c.net.Profile.BytesPerSec = bytesPerSec
	})
}

// WithDisk sets the simulated stable-storage latency: per-store delay and
// streaming bandwidth in bytes per second (0 = infinite).
func WithDisk(storeDelay time.Duration, bytesPerSec float64) Option {
	return optionFunc(func(c *config) {
		c.disk.StoreDelay = storeDelay
		c.disk.BytesPerSec = bytesPerSec
	})
}

// WithWALStorage stores each process's stable state in dir/node<i> on real
// files instead of the simulated disk, using the log engine: one
// append-only CRC-framed segment chain, compacted into an indexed snapshot,
// with a bounded set of values in memory, so reopen time and resident memory
// are bounded by the compaction policy instead of the namespace size. Each
// process's logger hands it the causal logs of concurrent rounds as one
// batch, which is one append + one fdatasync; a lone store is one append +
// one fdatasync — the paper's "file written synchronously". See
// docs/adr/0021-one-log.md and docs/adr/0019-node-is-its-group-committer.md.
func WithWALStorage(dir string) Option {
	return optionFunc(func(c *config) { c.diskBackend = "wal"; c.diskDir = dir })
}

// WithMessageLoss drops each message with the given probability in [0,1).
// The emulations retransmit, so operations still terminate.
func WithMessageLoss(rate float64) Option {
	return optionFunc(func(c *config) { c.net.LossRate = rate })
}

// WithDuplication duplicates each message with the given probability in
// [0,1).
func WithDuplication(rate float64) Option {
	return optionFunc(func(c *config) { c.net.DupRate = rate })
}

// WithSeed seeds the simulated network's randomness (loss, jitter,
// duplication decisions).
func WithSeed(seed int64) Option {
	return optionFunc(func(c *config) { c.net.Seed = seed })
}

// WithRetransmitEvery sets the resend period for unacknowledged protocol
// rounds (default 25 ms).
func WithRetransmitEvery(d time.Duration) Option {
	return optionFunc(func(c *config) { c.node.RetransmitEvery = d })
}

// WithHardenedTags makes the two algorithms that mint with the persisted
// recovery counter — TransientAtomic and RegularRegister — append it to their
// timestamps as a final tiebreak, closing the tag-collision window of the
// paper's literal Figure 5 (see docs/adr/0024). It does not close the orphan
// window the same ADR describes. The other algorithms ignore it.
func WithHardenedTags() Option {
	return optionFunc(func(c *config) { c.node.HardenedTags = true })
}

// Cluster is a running shared-memory emulation over n simulated processes.
type Cluster struct {
	inner *cluster.Cluster
	algo  Algorithm

	scriptMu sync.Mutex
	script   *gate
}

// validate rejects option values that the simulation would otherwise apply
// silently (or trip over later): probabilities outside [0,1) and negative
// latencies or bandwidths.
func (c *config) validate() error {
	if r := c.net.LossRate; r < 0 || r >= 1 {
		return fmt.Errorf("recmem: WithMessageLoss rate %v outside [0,1)", r)
	}
	if r := c.net.DupRate; r < 0 || r >= 1 {
		return fmt.Errorf("recmem: WithDuplication rate %v outside [0,1)", r)
	}
	p := c.net.Profile
	if p.Propagation < 0 || p.SelfDelay < 0 || p.Jitter < 0 {
		return fmt.Errorf("recmem: negative network latency (propagation %v, self %v, jitter %v)",
			p.Propagation, p.SelfDelay, p.Jitter)
	}
	if p.BytesPerSec < 0 {
		return fmt.Errorf("recmem: negative network bandwidth %v bytes/s", p.BytesPerSec)
	}
	if c.disk.StoreDelay < 0 {
		return fmt.Errorf("recmem: negative disk store delay %v", c.disk.StoreDelay)
	}
	if c.disk.BytesPerSec < 0 {
		return fmt.Errorf("recmem: negative disk bandwidth %v bytes/s", c.disk.BytesPerSec)
	}
	if c.node.RetransmitEvery < 0 {
		return fmt.Errorf("recmem: negative retransmission period %v", c.node.RetransmitEvery)
	}
	return nil
}

// New starts a cluster of n processes running the given algorithm.
func New(n int, algo Algorithm, opts ...Option) (*Cluster, error) {
	kind := algo.kind()
	if kind == 0 {
		return nil, fmt.Errorf("recmem: unknown algorithm %d", int(algo))
	}
	var cfg config
	for _, o := range opts {
		o.apply(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cc := cluster.Config{
		N:           n,
		Algorithm:   kind,
		Node:        cfg.node,
		Net:         cfg.net,
		Disk:        cfg.disk,
		DiskBackend: cfg.diskBackend,
		DiskDir:     cfg.diskDir,
	}
	inner, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, algo: algo}, nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.inner.N() }

// Algorithm returns the emulation algorithm.
func (c *Cluster) Algorithm() Algorithm { return c.algo }

// Process returns the handle for invoking operations at process id (0-based).
func (c *Cluster) Process(id int) *Process {
	if id < 0 || id >= c.inner.N() {
		panic(fmt.Sprintf("recmem: process %d out of range [0,%d)", id, c.inner.N()))
	}
	return NewProcess(c.inner, int32(id))
}

// NewProcess returns the client handle of process id of a simulated cluster
// that in-module drivers (the workload package, recmem-torture) built
// directly; applications get theirs from Cluster.Process.
func NewProcess(c *cluster.Cluster, id int32) *Process {
	return &Process{c: c, id: id}
}

// CriterionFor returns the criterion an algorithm guarantees — the one
// kind-to-criterion table, shared by Cluster.Verify and the in-module drivers
// (recmem-torture checks a live mesh against the algorithm its nodes report):
// linearizability for the crash-stop baseline (under crash-stop faults),
// transient atomicity for Fig. 5, persistent atomicity for Fig. 4 and the
// naive adaptation, single-writer regularity for the §VI extension.
func CriterionFor(kind core.AlgorithmKind) Criterion {
	switch kind {
	case core.CrashStop:
		return Linearizability
	case core.Transient:
		return TransientAtomicity
	case core.RegularSW:
		return Regularity
	default:
		return PersistentAtomicity
	}
}

// DefaultCriterion returns the criterion the algorithm guarantees.
func (c *Cluster) DefaultCriterion() Criterion { return CriterionFor(c.algo.kind()) }

// Verify checks the recorded history of the cluster against the algorithm's
// own criterion. It returns nil if the run was correct.
func (c *Cluster) Verify() error { return c.VerifyCriterion(c.DefaultCriterion()) }

// VerifyCriterion checks the recorded history against an explicit criterion.
func (c *Cluster) VerifyCriterion(cr Criterion) error { return c.inner.Check(cr.mode()) }

// LatencyStats summarizes operation latencies.
type LatencyStats struct {
	Count                    int
	Mean, P50, P95, Min, Max time.Duration
}

// WriteLatency summarizes all completed writes.
func (c *Cluster) WriteLatency() LatencyStats { return toStats(c.inner.WriteStats()) }

// ReadLatency summarizes all completed reads.
func (c *Cluster) ReadLatency() LatencyStats { return toStats(c.inner.ReadStats()) }

// OpCost is the stable-storage bill of one operation (the paper's
// log-complexity metric, §I-B).
type OpCost struct {
	// CausalLogs is the length of the longest causal chain of logs inside
	// the operation: the paper's headline metric (persistent write: 2,
	// transient write: 1, quiescent read: 0).
	CausalLogs int
	// TotalLogs counts every store performed on behalf of the operation
	// across all processes.
	TotalLogs int
	// Bytes is the total volume written to stable storage.
	Bytes int
}

// CostOf returns the accounting of a finished operation. Processes beyond
// the acknowledging majority may still be logging when the operation
// returns; their stragglers are added as they land.
func (c *Cluster) CostOf(op OpID) OpCost {
	return toCost(c.inner.LogCost(uint64(op)))
}

// Close shuts the cluster down.
func (c *Cluster) Close() { c.inner.Close() }

// OpID identifies a completed operation for accounting.
type OpID uint64

// Process is the client handle of one emulated process; it implements
// Client, making it interchangeable with remote.Client (a TCP connection to
// a live recmem-node). Synchronous operations on a process are sequential
// (the model's processes are sequential); calling concurrently from
// multiple goroutines serializes them.
type Process struct {
	c  *cluster.Cluster
	id int32
}

var _ Client = (*Process)(nil)

// ID returns the process id.
func (p *Process) ID() int { return int(p.id) }

// Register resolves a first-class handle on the named register. The
// dispatcher shard and submission queue are resolved here, once
// — operations through the handle skip the per-operation string-map lookups
// that Process.Write/Read pay, so hot paths should hold on to handles.
func (p *Process) Register(name string) *Register {
	return NewRegister(name, processRegister{h: p.c.Handle(p.id, name)})
}

// Write writes val to the named register. It blocks until a majority of
// processes acknowledges and returns ErrCrashed if the process crashes
// mid-operation (in which case the write may or may not take effect — its
// invocation stays pending in the history). Equivalent to
// p.Register(register).Write(ctx, val); use a handle on hot paths.
func (p *Process) Write(ctx context.Context, register string, val []byte) error {
	_, err := p.c.Write(ctx, p.id, register, val)
	return err
}

// Read returns the register's current value (nil if never written). Reads
// are atomic: they never return stale values relative to completed writes
// and other completed reads, per the algorithm's criterion. Equivalent to
// p.Register(register).Read(ctx); use a handle on hot paths.
func (p *Process) Read(ctx context.Context, register string) ([]byte, error) {
	val, _, err := p.c.Read(ctx, p.id, register)
	return val, err
}

// SubmitWrite asynchronously writes val to the named register through the
// process's batching engine and returns a future for the acknowledgement.
// Writes submitted while an earlier write to the same register is still in
// flight coalesce with it into a single quorum round (one minted timestamp,
// one causal log chain for the whole batch); submissions to different
// registers pipeline, overlapping their network rounds. Unlike Write,
// submissions from one process do not serialize with each other — use the
// futures to order operations that must not overlap.
//
// Verify still checks histories containing submitted operations, but its
// witness search is exponential in the number of mutually concurrent
// writes per register (reads do not branch it): runs meant for verification
// should keep async bursts small (tens, not thousands, in flight per
// register).
func (p *Process) SubmitWrite(register string, val []byte) (*WriteFuture, error) {
	f, err := p.c.SubmitWrite(p.id, register, val)
	if err != nil {
		return nil, err
	}
	return &WriteFuture{f: f}, nil
}

// SubmitRead asynchronously reads the named register through the process's
// batching engine; concurrent submitted reads of one register share a single
// quorum round and all return its value.
func (p *Process) SubmitRead(register string) (*ReadFuture, error) {
	f, err := p.c.SubmitRead(p.id, register)
	if err != nil {
		return nil, err
	}
	return &ReadFuture{f: f}, nil
}

// Crash fails the process: volatile state is lost and in-flight operations
// return ErrCrashed. Returns ErrDown if it was already down. The context is
// unused in the simulation (crashes are instantaneous); it exists for the
// Client contract, where a remote crash is a network round-trip.
func (p *Process) Crash(_ context.Context) error {
	if !p.c.Crash(p.id) {
		return ErrDown
	}
	return nil
}

// Recover restarts a crashed process, reloading stable storage and running
// the algorithm's recovery procedure (which for PersistentAtomic finishes
// the interrupted write and requires a reachable majority).
func (p *Process) Recover(ctx context.Context) error { return p.c.Recover(ctx, p.id) }

// Close releases the client handle. The emulated process keeps running —
// the cluster owns its lifecycle (Cluster.Close).
func (p *Process) Close() error { return nil }

// Up reports whether the process currently accepts operations.
func (p *Process) Up() bool { return p.c.Node(p.id).Up() }

// Peek returns the process's current volatile view of a register without
// running the protocol. It is a harness-side inspection facility for demos
// and tests — not a register operation, not atomic, and not recorded in the
// history.
func (p *Process) Peek(register string) (val []byte, ok bool) {
	_, v, ok := p.c.Node(p.id).RegisterState(register)
	return v, ok
}

func toStats(s metrics.Stats) LatencyStats {
	return LatencyStats{
		Count: s.Count,
		Mean:  s.Mean,
		P50:   s.P50,
		P95:   s.P95,
		Min:   s.Min,
		Max:   s.Max,
	}
}

func toCost(c causal.OpCost) OpCost {
	return OpCost{CausalLogs: c.CausalDepth, TotalLogs: c.Logs, Bytes: c.Bytes}
}
