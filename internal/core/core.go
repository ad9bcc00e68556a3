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
// engine (batch.go): SubmitWrite/SubmitRead return futures, concurrent
// submissions to one register coalesce into a single execution of the
// protocol (one minted timestamp and one causal log chain per batch), and
// different registers' rounds overlap, their broadcasts group-committed into
// per-destination batch frames. The paper's one-operation-at-a-time process
// is the synchronous Write/Read: the same submission, awaited under the
// node's operation mutex — a batch of one, which costs exactly the paper's
// messages and logs. See docs/adr/0001 and docs/adr/0011.
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

// Options tunes a node beyond the algorithm choice.
type Options struct {
	// RetransmitEvery is the resend period for unacknowledged rounds over
	// the fair-lossy channels (default 25 ms).
	RetransmitEvery time.Duration
	// HardenedTags makes the transient algorithm append the persisted
	// recovery counter to the timestamp as a final lexicographic tiebreak,
	// closing the tag-collision window of the literal Figure 5
	// (docs/adr/0024). It does not close that ADR's orphan window. Off by
	// default: the default is the paper's algorithm.
	HardenedTags bool
	// OneRoundReads lets an atomic read return after its query round when
	// every acknowledgement of the majority it heard carries the same full
	// tag (Seq, Writer, Rec): the value is then already logged at a majority
	// — each replica stored written/<reg> before it adopted the tag it
	// reports, and a process's durable tag only grows across crashes — which
	// is exactly the post-condition of the write-back round, so the round is
	// skipped: 2 communication steps, n messages, no log (docs/adr/0015).
	// Any disagreement falls back to the write-back, which is when the
	// paper's reader would have caused a log. Applies to CrashStop, Transient
	// and Persistent; Naive (log-every-step is its point), RegularSW (already
	// one round) and UnsafeNoReadLog (replicas adopt write-backs they never
	// logged) ignore it. Off by default: the default is the paper's
	// algorithm, which Figure 6 measures; recmem-node always sets it because
	// the deployed-shape benchmark measured it (docs/adr/0015, Measured).
	OneRoundReads bool
	// UnsafeNoReadLog disables logging when handling a read's write-back
	// round. This deliberately re-introduces the Theorem 2 impossibility
	// (reads that leave no stable trace) and exists only to demonstrate the
	// lower bound; never enable it otherwise.
	UnsafeNoReadLog bool
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
	id     int32
	n      int
	quorum int
	kind   AlgorithmKind
	opts   Options

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
	// inc is the incarnation epoch (docs/adr/0006): a monotonic per-boot
	// counter, persisted under recIncarnation and minted (+1) at the start
	// of every recovery procedure. Unlike epoch — the volatile crash
	// generation, which restarts at every process birth — inc survives in
	// stable storage, so two boots of one node never share a value.
	// Deliberately NOT wiped by Crash: it is harness bookkeeping that lets
	// remote observers infer crashes nobody injected, never protocol state.
	inc uint64
	// regs is the volatile register map. An entry's presence means "this
	// incarnation touched the register": entries appear on adoption and on
	// lazy materialization from the written/ record (regView), never as an
	// eager recovery-time rebuild — restarts are O(pending), not
	// O(namespace) (docs/adr/0009). Crash wipes the map.
	regs         map[string]regState
	rec          int32 // volatile copy of the persisted recovery counter
	lastRecovery RecoveryStats
	pending      map[uint64]chan wire.Envelope
	crashCh      chan struct{} // closed on crash; recreated on recovery

	// eng is the batching + pipelining engine behind SubmitWrite/SubmitRead;
	// ob group-commits its round broadcasts into batch frames.
	eng *engine
	ob  *outbox

	// roundPool recycles per-round working sets (ack channel, scratch
	// slices, retransmission timer); see roundState.
	roundPool sync.Pool

	// oneRound is Options.OneRoundReads resolved against the algorithm and
	// the ablations; readsOne counts the read executions it completed after
	// one round, readsTwo those that ran the write-back (ReadRounds).
	oneRound           bool
	readsOne, readsTwo atomic.Uint64

	// adopter is the node's logger (listener.go) and its one store path: it
	// persists the envelopes the listener hands over, the executions'
	// pre-logs and the recoveries' records; it is pushed, taken and dropped
	// under mu. logGroups and logRecords count its StoreBatch calls and the
	// records they carried (Adoptions).
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
	if kind.Recovers() && deps.Storage == nil {
		return nil, fmt.Errorf("core: %v algorithm requires stable storage", kind)
	}
	if opts.RetransmitEvery <= 0 {
		opts.RetransmitEvery = 25 * time.Millisecond
	}
	nd := &Node{
		id:           id,
		n:            n,
		quorum:       (n + 2) / 2, // ⌈(n+1)/2⌉
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
		pending:      make(map[uint64]chan wire.Envelope),
		crashCh:      make(chan struct{}),
		listenerDone: make(chan struct{}),
	}
	nd.oneRound = opts.OneRoundReads && !opts.UnsafeNoReadLog &&
		(kind == CrashStop || kind == Transient || kind == Persistent)
	// Mint the boot's incarnation epoch: one past whatever the last boot
	// persisted (a cold start on empty storage gets 1). Recoveries mint
	// further epochs via mintIncarnation; this first one is persisted there
	// too, so an un-recovered boot may legitimately reuse 1 — it has never
	// exposed a different epoch.
	nd.inc = 1
	if deps.Storage != nil {
		prev, err := loadIncarnation(deps.Storage)
		if err != nil {
			return nil, err
		}
		nd.inc = prev + 1
	}
	nd.eng = newEngine(nd)
	nd.ob = &outbox{nd: nd}
	nd.ob.owner = nd.ob
	nd.adopter.nd, nd.adopter.owner = nd, &nd.adopter
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

// RegisterState returns the node's view of a register, for tests and demos
// (the harness-side equivalent of peeking at the paper's v and sn
// variables). On a serving node the view materializes from stable storage on
// first touch, exactly like the protocol paths; ok reports whether the
// register holds any adopted state. A node that is down reports nothing —
// its volatile state is gone and it must not serve — while a closed node
// keeps reporting whatever volatile view it held at Close.
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

// regView returns the node's current view of one register, materializing the
// map entry from the register's written/ record on first touch — the lazy
// counterpart of the eager recovery-time rebuild this map used to get
// (docs/adr/0009). The load happens off nd.mu (the engine's storage may
// block); a crash, recovery, or racing adoption while loading invalidates
// the loaded view, detected by the epoch re-check before insertion. The
// returned epoch is the one the view is valid under, for callers that
// persist state afterwards and must notice an intervening crash.
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
	if nd.st == nil || !nd.kind.Recovers() {
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
		// Crashed (or closed) while loading: the record read belongs to a
		// dead incarnation's serving window — discard it.
		if nd.state == stateClosed {
			return regState{}, 0, ErrClosed
		}
		return regState{}, 0, ErrCrashed
	}
	if cur, ok := nd.regs[reg]; ok {
		// A concurrent adoption (or another materializer) beat the load; its
		// view is at least as fresh. Adopters store before they insert — the
		// volatile view never runs ahead of the written/ record;
		// OneRoundReads depends on it — and they materialize the entry
		// before that store begins, so a load that raced one lands here
		// rather than inserting a record whose store has not returned.
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
// many records they carried — every store of the node: the replica's
// adoptions, the executions' own pre-logs and the recoveries' records
// together. Records per group is the node's group-commit ratio (docs/adr/0017,
// 0019).
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

// RecoveryStats summarizes the stable-storage footprint of the last
// completed recovery procedure — what a restart actually had to read now
// that the register map materializes lazily (docs/adr/0009).
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
// operations are interrupted, and the node stops participating until
// Recover. onEvent, if non-nil, is invoked inside the state transition so
// that the harness can record the crash event totally ordered with respect
// to the node's operation events. Returns false if the node was already
// down or closed.
func (nd *Node) Crash(onEvent func()) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.state != stateUp && nd.state != stateRecovering {
		return false
	}
	nd.crashLocked("crash", "volatile state wiped", onEvent)
	return true
}

// crashLocked is the one transition into the crashed state, shared by Crash
// and a failed recovery: a new epoch, the in-flight rounds aborted through
// crashCh, the volatile state wiped, the logger's queue dropped, then the
// trace event and the harness's onEvent. Caller holds nd.mu.
func (nd *Node) crashLocked(event, detail string, onEvent func()) {
	nd.state = stateDown
	nd.epoch++
	close(nd.crashCh)
	nd.crashCh = make(chan struct{})
	nd.regs = make(map[string]regState)
	nd.rec = 0
	nd.adopter.drop(ErrCrashed)
	nd.traceEvent(event, detail)
	if onEvent != nil {
		onEvent()
	}
}

// Recover brings a crashed process back: stable state is reloaded and the
// algorithm's recovery procedure runs (Fig. 4: finish the interrupted write
// with a majority; Fig. 5: increment and persist the recovery counter).
// onEvent is invoked inside the transition out of the crashed state, before
// the recovery procedure; onAbort is invoked (also inside the state lock)
// if the procedure fails and the process falls back to the crashed state —
// the harness records a crash event there so histories stay well-formed.
// Recover blocks until the procedure completes, which requires a majority
// of processes to be reachable — the model's "eventually a majority
// permanently up" assumption; it can be retried after a failure. It returns
// ErrCrashed if the process crashes again mid-recovery.
func (nd *Node) Recover(ctx context.Context, onEvent, onAbort func()) error {
	if !nd.kind.Recovers() {
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
		nd.mu.Lock()
		if nd.state == stateRecovering && nd.epoch == epoch {
			nd.crashLocked("recover-abort", err.Error(), onAbort)
		}
		nd.mu.Unlock()
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
	nd.mu.Lock()
	if nd.state == stateClosed {
		nd.mu.Unlock()
		return
	}
	prev := nd.state
	nd.state = stateClosed
	nd.epoch++
	if prev == stateUp || prev == stateRecovering {
		close(nd.crashCh)
		nd.crashCh = make(chan struct{})
	}
	nd.adopter.drop(ErrClosed)
	nd.mu.Unlock()
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
