package core

import (
	"context"
	"errors"

	"recmem/internal/tag"
	"recmem/internal/wire"
)

// This file implements first-class register handles: a RegisterRef resolves
// everything per-register the node would otherwise look up on every
// operation — the batching engine's queue (maphash + map lookup) — exactly
// once, so handle-based operations touch only pointer-stable state on the
// hot path. It also implements the §VI read-consistency selection: the
// regular register's read can be downgraded to a safe read served by the
// writer alone.

// ReadMode selects the consistency of a single read operation.
type ReadMode int

const (
	// ReadDefault is the algorithm's native read: the two-round atomic read
	// for the atomic emulations (one round under Options.OneRoundReads when
	// the majority agrees), the one-round majority read for RegularSW.
	ReadDefault ReadMode = iota
	// ReadRegular explicitly requests the regular read (RegularSW only);
	// identical to ReadDefault under that algorithm.
	ReadRegular
	// ReadSafe requests the §VI safe read (RegularSW only): a round
	// addressed to the designated writer alone — 2 communication steps and 2
	// messages in total instead of a majority fan-out, and still no logging.
	// The writer's adopted value never lags a completed write (its listener
	// logs before the write's required self-acknowledgement), so a safe read
	// that is not concurrent with a write returns the last completed write —
	// in fact the result is even regular. The price is availability, not
	// consistency: safe reads block while the writer is down, where the
	// majority read keeps going.
	ReadSafe
)

// ErrBadConsistency is returned when a read-consistency selection is not
// available under the node's algorithm (only RegularSW has selectable
// safe/regular reads).
var ErrBadConsistency = errors.New("core: read-consistency selection requires the regular-register algorithm")

// checkReadMode validates a read-consistency selection against the node's
// algorithm.
func (nd *Node) checkReadMode(mode ReadMode) error {
	if mode != ReadDefault && nd.kind != RegularSW {
		return ErrBadConsistency
	}
	return nil
}

// RegisterRef is a node's handle on one register. Obtain one with
// Node.RegisterRef and reuse it: all per-register resolution (the
// submission queue) happened at creation, so the per-operation string-map
// lookups of the Node-level API disappear from the hot path.
type RegisterRef struct {
	nd  *Node
	reg string
	q   *regQueue
}

// RegisterRef resolves the named register's handle. The handle lives in the
// register's queue, which the engine never removes, so every call for one
// name returns the same pointer and allocates nothing once the queue exists.
func (nd *Node) RegisterRef(reg string) *RegisterRef {
	return &nd.eng.queueFor(reg).ref
}

// Name returns the register name.
func (r *RegisterRef) Name() string { return r.reg }

// Node returns the node the handle operates through.
func (r *RegisterRef) Node() *Node { return r.nd }

// Write submits the write through the handle's queue and waits for it under
// the node's operation mutex — the paper's sequential process; see await for
// what a ctx that ends leaves behind. It returns the operation id, the
// minted tag — the write's tag witness (zero on failure) — and the
// incarnation epoch the operation completed under (zero on failure).
func (r *RegisterRef) Write(ctx context.Context, val []byte, obs OpObserver) (uint64, tag.Tag, uint64, error) {
	r.nd.opMu.Lock()
	defer r.nd.opMu.Unlock()
	fut, err := r.SubmitWrite(val, obs)
	if err != nil {
		return 0, tag.Tag{}, 0, err
	}
	if err := r.nd.await(ctx, fut); err != nil {
		return fut.op, tag.Tag{}, 0, err
	}
	return fut.op, fut.wit, fut.inc, nil
}

// Read is Write's counterpart, with a read-consistency selection (ReadSafe
// and ReadRegular require the RegularSW algorithm); it additionally returns
// the tag under which the returned value was adopted — the read's tag
// witness (zero on failure or for the initial value ⊥).
func (r *RegisterRef) Read(ctx context.Context, mode ReadMode, obs OpObserver) ([]byte, uint64, tag.Tag, uint64, error) {
	r.nd.opMu.Lock()
	defer r.nd.opMu.Unlock()
	fut, err := r.SubmitRead(mode, obs)
	if err != nil {
		return nil, 0, tag.Tag{}, 0, err
	}
	if err := r.nd.await(ctx, fut); err != nil {
		return nil, fut.op, tag.Tag{}, 0, err
	}
	return fut.val, fut.op, fut.wit, fut.inc, nil
}

// SubmitWrite submits an asynchronous write (see Node.SubmitWrite) straight
// onto the handle's pre-resolved register queue.
func (r *RegisterRef) SubmitWrite(val []byte, obs OpObserver) (*Future, error) {
	val = append([]byte(nil), val...) // copy once at the boundary
	return r.SubmitWriteOwned(val, obs)
}

// SubmitWriteOwned is SubmitWrite minus the defensive copy: the caller
// transfers ownership of val, which must never be mutated afterwards. The
// remote server's decoded request value is already an owned copy, so this is
// its ingest path.
func (r *RegisterRef) SubmitWriteOwned(val []byte, obs OpObserver) (*Future, error) {
	nd := r.nd
	if len(val) > wire.MaxValueSize {
		return nil, wire.ErrValueTooLarge
	}
	if nd.kind == RegularSW && nd.id != RegularWriter {
		return nil, ErrNotWriter
	}
	op, epoch, err := nd.beginOp(obs)
	if err != nil {
		return nil, err
	}
	fut := newFuture(op)
	r.q.push(newSub(false, val, obs, op, epoch, fut))
	return fut, nil
}

// SubmitRead submits an asynchronous read (see Node.SubmitRead). Default and
// regular reads coalesce through the batching engine; safe reads bypass it —
// they are a single 2-message exchange with the writer, so there is no
// quorum round to share — and run on their own goroutine.
func (r *RegisterRef) SubmitRead(mode ReadMode, obs OpObserver) (*Future, error) {
	nd, reg := r.nd, r.reg
	if err := nd.checkReadMode(mode); err != nil {
		return nil, err
	}
	op, epoch, err := nd.beginOp(obs)
	if err != nil {
		return nil, err
	}
	fut := newFuture(op)
	s := newSub(true, nil, obs, op, epoch, fut)
	if mode == ReadSafe {
		go func() {
			// Like engine rounds, the safe read aborts via crashCh on
			// crash/close rather than through a context.
			val, wit, err := nd.safeReadSW(context.Background(), op, epoch, reg)
			nd.finish(s, val, wit, err)
			putSub(s)
		}()
		return fut, nil
	}
	r.q.push(s)
	return fut, nil
}

// safeReadSW is the §VI safe read: one round addressed to the designated
// writer alone, requiring only the writer's acknowledgement. See ReadSafe
// for why this is safe (and regular) yet blocks while the writer is down.
// The returned tag is the writer's adopted tag — the read's tag witness.
func (nd *Node) safeReadSW(ctx context.Context, op, epoch uint64, reg string) ([]byte, tag.Tag, error) {
	acks, err := nd.runRoundOpts(ctx, op, epoch, wire.Envelope{Kind: wire.KindRead, Reg: reg},
		roundOpts{require: RegularWriter, to: RegularWriter, quorum: 1})
	if err != nil {
		return nil, tag.Tag{}, err
	}
	return acks[RegularWriter].Value, acks[RegularWriter].Tag, nil
}
