package recmem

import (
	"context"
	"time"
)

// Client is the backend-agnostic surface of the shared-memory emulation:
// one process's view of the register space. Two implementations exist —
// *Process (a process of the in-process simulated cluster) and
// remote.Client (a TCP connection to a live recmem-node) — and they are
// interchangeable: the same application, workload, or torture scenario runs
// against either, selected only by which Client is passed in.
//
// Register returns a first-class handle on a named register; all reads and
// writes go through handles. Crash and Recover inject the crash-recovery
// model's process faults (on the simulator they fail the emulated process;
// on a remote node they fail the live process behind the control port).
// Close releases the client handle — it never shuts down the emulation
// behind it.
type Client interface {
	// Register resolves a handle on the named register. Resolution work
	// (dispatcher shard, submission queue — or the encoded name
	// for remote clients) happens once, here: reuse handles on hot paths.
	Register(name string) *Register
	// Crash fails the process behind the client: volatile state is lost and
	// in-flight operations return ErrCrashed. ErrDown if already down.
	Crash(ctx context.Context) error
	// Recover restarts the crashed process: stable state is reloaded and
	// the algorithm's recovery procedure runs (requiring a reachable
	// majority for the persistent algorithm). ErrNotDown if it is up.
	Recover(ctx context.Context) error
	// Close releases the client. The emulation keeps running.
	Close() error
}

// OpOptions is the resolved per-operation option set. Backends receive it
// through the RegisterBackend driver interface; applications build it with
// the With... functional options.
type OpOptions struct {
	// Deadline bounds the operation (0 = none; negative = already expired).
	// Synchronous operations run under a context with this timeout; remote
	// backends also ship it to the server so the node-side wait is bounded
	// too.
	Deadline time.Duration
	// Consistency selects the read's criterion: 0 means the algorithm's
	// native read; Regularity and Safety are selectable only under the
	// RegularRegister algorithm (Safety buys a 2-message read served by the
	// writer alone — see WithConsistency).
	Consistency Criterion
	// Cost, if non-nil, receives the operation id for CostOf accounting.
	Cost *OpID
	// Witness, if non-nil, receives the operation's tag witness on a
	// successful synchronous operation: the tag the emulation adopted for
	// the written or returned value (see WithWitness). Backends that cannot
	// report one leave it zero.
	Witness *Tag
	// Epoch, if non-nil, receives the incarnation epoch the serving node
	// completed the operation under (see WithEpoch). Zero on failure and on
	// backends that cannot report one.
	Epoch *uint64
}

// OpOption customizes one operation on a Register handle.
type OpOption func(*OpOptions)

// WithDeadline bounds the operation to d. A synchronous operation whose
// deadline expires returns context.DeadlineExceeded; the protocol execution
// itself is abandoned by the wait, not aborted (exactly like cancelling the
// context passed to Read/Write). A non-positive d (other than the zero
// value, which means "no deadline" when resolved) is an already-expired
// deadline: the operation fails with context.DeadlineExceeded immediately —
// it is never silently converted into an unbounded one.
func WithDeadline(d time.Duration) OpOption {
	return func(o *OpOptions) { o.Deadline = d }
}

// WithWitness captures the operation's tag witness into dst: the tag the
// emulation adopted for the written value (the write's minted timestamp) or
// for the value a read returned. dst is left zero when the operation fails,
// when a read returns the initial value ⊥, and for the rare coalesced write
// whose value was superseded within its batch. The witness is the
// server-side ordering evidence history.Merge uses to order merged
// live-mesh histories where client clocks cannot.
func WithWitness(dst *Tag) OpOption {
	return func(o *OpOptions) { o.Witness = dst }
}

// WithEpoch captures the serving node's incarnation epoch into dst: a
// monotonic per-boot counter that strictly increases across every recovery
// of the node, including real process restarts over the same stable storage
// (docs/adr/0006). dst is zeroed first and left zero when the operation
// fails. An epoch that advances between two replies from one node proves the
// node crashed and recovered in between — even if nobody injected the fault —
// which is what lets recording clients verify kill-restart meshes under
// transient atomicity.
func WithEpoch(dst *uint64) OpOption {
	return func(o *OpOptions) { o.Epoch = dst }
}

// WithCost captures the operation id into dst, for Cluster.CostOf log-
// complexity accounting (the paper's §I-B metric). dst is written as soon
// as the id is known: on return for synchronous operations.
func WithCost(dst *OpID) OpOption {
	return func(o *OpOptions) { o.Cost = dst }
}

// WithConsistency selects the read's criterion under the RegularRegister
// algorithm: Regularity is the native one-round majority read; Safety is
// the §VI safe read, served by the designated writer alone — 2 messages
// instead of a majority fan-out and still log-free, at the price of
// availability (safe reads block while the writer is down). Any selection
// under another algorithm, or on a write, is an error.
func WithConsistency(cr Criterion) OpOption {
	return func(o *OpOptions) { o.Consistency = cr }
}

// resolveOpts folds functional options into the resolved set.
func resolveOpts(opts []OpOption) OpOptions {
	var o OpOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// admit is the admission check every backend shares: an operation whose
// deadline has already expired, or whose context is already done, fails
// before the backend sees it. Nothing is submitted or sent, so the operation
// provably never executes, and the WithCost/WithWitness/WithEpoch captures
// are zeroed like those of any failed operation.
func (o OpOptions) admit(ctx context.Context) error {
	err := ctx.Err()
	if err == nil && o.Deadline < 0 {
		err = context.DeadlineExceeded
	}
	if err != nil {
		if o.Cost != nil {
			*o.Cost = 0
		}
		if o.Witness != nil {
			*o.Witness = Tag{}
		}
		if o.Epoch != nil {
			*o.Epoch = 0
		}
	}
	return err
}

// opCtx derives the operation context from the deadline option. A negative
// deadline (already expired) yields an already-cancelled context — the old
// `> 0` guard silently turned an expired deadline into no deadline at all.
func (o OpOptions) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Deadline != 0 {
		return context.WithTimeout(ctx, o.Deadline)
	}
	return ctx, func() {}
}
