package recmem

import (
	"context"
	"fmt"

	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/tag"
)

// Tag is a write timestamp of the emulation: the paper's lexicographic
// [sn, pid] pair (plus the hardened-variant recovery tiebreak). Operations
// report the tag adopted for their value as a "tag witness" — server-side
// ordering evidence that history merging uses where client clocks cannot
// order events (see WithWitness and docs/adr/0004).
type Tag = tag.Tag

// TagWitness is implemented by operation futures that can report their
// operation's tag witness once complete — the simulated cluster's futures
// and the remote package's. ok is false before completion and for
// operations without a witness.
type TagWitness interface {
	TagWitness() (wit Tag, ok bool)
}

// EpochWitness is implemented by operation futures that can report the
// incarnation epoch their operation completed under (see WithEpoch and
// docs/adr/0006) — the simulated cluster's futures and the remote package's.
// ok is false before completion and for failed operations; unlike the tag
// witness, every successful operation carries an epoch.
type EpochWitness interface {
	Incarnation() (epoch uint64, ok bool)
}

// Register is a first-class handle on one named register, obtained from a
// Client (Process.Register or remote.Client.Register). The handle caches
// everything per-register the backend would otherwise resolve on every
// operation — for the simulated cluster that is the batching engine's
// dispatcher shard and queue, so handle operations skip the per-op
// string-map lookups of the Process-level convenience methods. Handles are
// safe for concurrent use.
type Register struct {
	name string
	b    RegisterBackend
}

// NewRegister builds a handle over a backend driver. Applications obtain
// handles from a Client; NewRegister exists for backend implementations
// (the remote package, the workload drivers).
func NewRegister(name string, b RegisterBackend) *Register {
	return &Register{name: name, b: b}
}

// Name returns the register name.
func (r *Register) Name() string { return r.name }

// Read returns the register's current value (nil if never written) under
// the algorithm's criterion. Options: WithDeadline, WithCost,
// WithConsistency (RegularRegister only).
func (r *Register) Read(ctx context.Context, opts ...OpOption) ([]byte, error) {
	o := resolveOpts(opts)
	if err := o.admit(ctx); err != nil {
		return nil, err
	}
	ctx, cancel := o.opCtx(ctx)
	defer cancel()
	val, op, err := r.b.Read(ctx, o)
	if o.Cost != nil {
		*o.Cost = op
	}
	return val, err
}

// Write writes val to the register, blocking until a majority of processes
// acknowledges. Options: WithDeadline, WithCost.
func (r *Register) Write(ctx context.Context, val []byte, opts ...OpOption) error {
	o := resolveOpts(opts)
	if o.Consistency != 0 {
		return fmt.Errorf("recmem: WithConsistency applies to reads, not writes")
	}
	if err := o.admit(ctx); err != nil {
		return err
	}
	ctx, cancel := o.opCtx(ctx)
	defer cancel()
	op, err := r.b.Write(ctx, val, o)
	if o.Cost != nil {
		*o.Cost = op
	}
	return err
}

// SubmitWrite asynchronously writes val through the backend's batching
// engine and returns a future for the acknowledgement. Submissions to one
// register that are concurrently in flight coalesce into a single quorum
// round; submissions to different registers pipeline. See
// Process.SubmitWrite for the history-verification caveat on large bursts.
//
// Admission errors (down process, non-writer under RegularRegister) surface
// at submission when the backend knows its process state locally (the
// simulated cluster) and through the future when it must round-trip to
// learn it (remote clients); callers must check both.
func (r *Register) SubmitWrite(val []byte, opts ...OpOption) (*WriteFuture, error) {
	o := resolveOpts(opts)
	if o.Consistency != 0 {
		return nil, fmt.Errorf("recmem: WithConsistency applies to reads, not writes")
	}
	if err := o.admit(context.Background()); err != nil {
		return nil, err
	}
	f, err := r.b.SubmitWrite(val, o)
	if err != nil {
		return nil, err
	}
	return &WriteFuture{f: f}, nil
}

// SubmitRead asynchronously reads through the backend's batching engine;
// concurrent submitted reads of one register share a single quorum round.
func (r *Register) SubmitRead(opts ...OpOption) (*ReadFuture, error) {
	o := resolveOpts(opts)
	if err := o.admit(context.Background()); err != nil {
		return nil, err
	}
	f, err := r.b.SubmitRead(o)
	if err != nil {
		return nil, err
	}
	return &ReadFuture{f: f}, nil
}

// RegisterBackend is the driver interface behind a Register handle; it is
// what a backend (the simulated cluster, the remote package's TCP client)
// implements per register. Applications never call it directly.
type RegisterBackend interface {
	// Read performs a synchronous read and returns the value and the
	// operation id.
	Read(ctx context.Context, o OpOptions) ([]byte, OpID, error)
	// Write performs a synchronous write and returns the operation id.
	Write(ctx context.Context, val []byte, o OpOptions) (OpID, error)
	// SubmitRead starts an asynchronous read.
	SubmitRead(o OpOptions) (Future, error)
	// SubmitWrite starts an asynchronous write.
	SubmitWrite(val []byte, o OpOptions) (Future, error)
}

// Future is the driver-level pending operation behind WriteFuture and
// ReadFuture. The simulated cluster's futures resolve when their quorum
// rounds commit; remote futures resolve when the node's response frame
// arrives.
type Future interface {
	// Op returns the operation id for accounting: immediately for the
	// simulated cluster, once Done for remote operations (0 before).
	Op() uint64
	// Done returns a channel closed when the operation completes.
	Done() <-chan struct{}
	// Wait blocks until the operation completes or ctx is done; the value
	// is the read result (nil for writes). Cancelling ctx abandons the
	// wait, not the operation.
	Wait(ctx context.Context) ([]byte, error)
}

// WriteFuture is the pending acknowledgement of a submitted write.
type WriteFuture struct {
	f Future
}

// Op returns the operation id for cost accounting (see Future.Op).
func (w *WriteFuture) Op() OpID { return OpID(w.f.Op()) }

// Done returns a channel closed when the write completes.
func (w *WriteFuture) Done() <-chan struct{} { return w.f.Done() }

// Wait blocks until the write is acknowledged by a majority (nil), the
// process crashes mid-operation (ErrCrashed), or ctx is done. Cancelling ctx
// abandons the wait, not the write.
func (w *WriteFuture) Wait(ctx context.Context) error {
	_, err := w.f.Wait(ctx)
	return err
}

// TagWitness reports the tag adopted for the write, once complete; ok is
// false before completion and on drivers without witnesses.
func (w *WriteFuture) TagWitness() (Tag, bool) { return futureWitness(w.f) }

// Incarnation reports the epoch the write completed under (docs/adr/0006);
// ok is false before completion, on failure, and on drivers without epochs.
func (w *WriteFuture) Incarnation() (uint64, bool) { return futureEpoch(w.f) }

// ReadFuture is the pending result of a submitted read.
type ReadFuture struct {
	f Future
}

// Op returns the operation id for cost accounting (see Future.Op).
func (r *ReadFuture) Op() OpID { return OpID(r.f.Op()) }

// Done returns a channel closed when the read completes.
func (r *ReadFuture) Done() <-chan struct{} { return r.f.Done() }

// Wait blocks until the read completes and returns its value (nil is the
// register's initial value ⊥).
func (r *ReadFuture) Wait(ctx context.Context) ([]byte, error) {
	return r.f.Wait(ctx)
}

// TagWitness reports the tag of the value the read returned, once complete.
func (r *ReadFuture) TagWitness() (Tag, bool) { return futureWitness(r.f) }

// Incarnation reports the epoch the read completed under (docs/adr/0006).
func (r *ReadFuture) Incarnation() (uint64, bool) { return futureEpoch(r.f) }

func futureWitness(f Future) (Tag, bool) {
	if tw, ok := f.(TagWitness); ok {
		return tw.TagWitness()
	}
	return Tag{}, false
}

func futureEpoch(f Future) (uint64, bool) {
	if ew, ok := f.(EpochWitness); ok {
		return ew.Incarnation()
	}
	return 0, false
}

// ReadMode resolves the WithConsistency selection to the core-level read
// mode (whose numbering is also the remote protocol's consistency byte).
// It is driver plumbing for RegisterBackend implementations — the single
// source of the mapping, shared by the cluster, workload and remote
// backends; applications never call it.
func (o OpOptions) ReadMode() (core.ReadMode, error) {
	switch o.Consistency {
	case 0:
		return core.ReadDefault, nil
	case Regularity:
		return core.ReadRegular, nil
	case Safety:
		return core.ReadSafe, nil
	default:
		return 0, fmt.Errorf("recmem: consistency %v is not selectable per read (only Regularity and Safety, under RegularRegister)", o.Consistency)
	}
}

// ErrBadConsistency is returned by reads whose WithConsistency selection is
// not available under the cluster's algorithm.
var ErrBadConsistency = core.ErrBadConsistency

// processRegister is the simulated cluster's RegisterBackend: a thin layer
// over the cluster-internal handle, which caches the core-level resolution
// and records history/latency like every other operation.
type processRegister struct {
	h *cluster.Handle
}

var _ RegisterBackend = processRegister{}

func (b processRegister) Read(ctx context.Context, o OpOptions) ([]byte, OpID, error) {
	mode, err := o.ReadMode()
	if err != nil {
		return nil, 0, err
	}
	val, rep, err := b.h.Read(ctx, mode)
	if o.Witness != nil {
		*o.Witness = rep.Tag
	}
	if o.Epoch != nil {
		*o.Epoch = rep.Epoch
	}
	return val, OpID(rep.Op), err
}

func (b processRegister) Write(ctx context.Context, val []byte, o OpOptions) (OpID, error) {
	rep, err := b.h.Write(ctx, val)
	if o.Witness != nil {
		*o.Witness = rep.Tag
	}
	if o.Epoch != nil {
		*o.Epoch = rep.Epoch
	}
	return OpID(rep.Op), err
}

func (b processRegister) SubmitRead(o OpOptions) (Future, error) {
	mode, err := o.ReadMode()
	if err != nil {
		return nil, err
	}
	return b.h.SubmitRead(mode)
}

func (b processRegister) SubmitWrite(val []byte, o OpOptions) (Future, error) {
	return b.h.SubmitWrite(val)
}

// The cluster backend's futures satisfy the driver interface directly, and
// report tag and epoch witnesses.
var (
	_ Future       = (*core.Future)(nil)
	_ TagWitness   = (*core.Future)(nil)
	_ EpochWitness = (*core.Future)(nil)
	_ TagWitness   = (*WriteFuture)(nil)
	_ EpochWitness = (*WriteFuture)(nil)
	_ TagWitness   = (*ReadFuture)(nil)
	_ EpochWitness = (*ReadFuture)(nil)
)
