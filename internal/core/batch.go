package core

import (
	"runtime"
	"sync"

	"recmem/internal/tag"
	"recmem/internal/wire"
)

// This file implements the node's batching + pipelining engine (docs/adr/
// 0001): SubmitWrite/SubmitRead return futures, and each register's handle
// queues its submissions. Two amortizations stack on top of the paper's
// algorithms, neither of which changes a protocol rule:
//
//   - Operation coalescing. The writes pending at a register when a batch is
//     taken are ONE execution of the write: one query, one minted tag, one
//     propagation of the last submitted value, one causal log chain. The
//     coalesced writes are pairwise concurrent (all submitted before the
//     batch starts, all completed after it commits), so linearizing them back
//     to back at the commit point — earlier ones immediately overwritten by
//     later ones — is a valid ordering, and every submitter's acknowledgement
//     is backed by the batch's value being durable at a majority under a tag
//     at least as high as any the folded writes would have minted. Pending
//     reads coalesce the same way into one read, all returning its value.
//   - Register pipelining. Each register runs its batches independently, so
//     rounds of different registers overlap in flight, and the outbox
//     group-commits their broadcasts into per-destination batch frames.
//
// The synchronous Write/Read are this same path — submit, then wait for the
// future under opMu, which models the paper's sequential process (docs/adr/
// 0011). A register runs one execution at a time, so no two executions at one
// node can mint the same timestamp for different values, whichever API
// submitted them.

// batchSub is one submitted operation waiting in a register's queue. Subs
// are engine-owned — created at submission, settled exactly once — so they
// recycle through a pool: the steady-state submission path allocates
// neither the sub nor (pool hits permitting) the future it carries.
type batchSub struct {
	read  bool
	val   []byte
	obs   OpObserver
	op    uint64
	epoch uint64
	fut   *Future
}

// subPool recycles batchSubs; the engine is their sole owner (the submitter
// only ever holds the future), so each is released once its outcome is
// settled.
var subPool = sync.Pool{New: func() any { return &batchSub{} }}

// newSub takes a sub from the pool and fills it.
func newSub(read bool, val []byte, obs OpObserver, op, epoch uint64, fut *Future) *batchSub {
	s := subPool.Get().(*batchSub)
	s.read, s.val, s.obs, s.op, s.epoch, s.fut = read, val, obs, op, epoch, fut
	return s
}

// putSub clears a consumed sub's references and recycles it.
func putSub(s *batchSub) {
	*s = batchSub{}
	subPool.Put(s)
}

// push queues s and starts a batch if none runs. Callers hold nd.mu.
func (r *RegisterRef) push(s *batchSub, done *[]completion) {
	r.subs = append(r.subs, s)
	if !r.running {
		r.next(done)
	}
}

// next takes everything submitted since the last batch as the next batch and
// starts its first execution, so submissions arriving during a batch form the
// one after — group commit. Nothing outlives the incarnation that admitted it
// (docs/adr/0018): a sub of a dead epoch completes here and runs nothing.
// Callers hold nd.mu.
func (r *RegisterRef) next(done *[]completion) {
	nd := r.nd
	for {
		clear(r.batch)
		r.batch, r.subs = r.subs, r.batch[:0]
		live := r.batch[:0]
		for _, s := range r.batch {
			if s.epoch == nd.epoch {
				live = append(live, s)
			} else {
				nd.complete(s, nil, tag.Tag{}, nd.downErrLocked(), done)
			}
		}
		clear(r.batch[len(live):])
		r.batch = live
		r.running = len(live) > 0
		if !r.running || r.start(false, done) || r.start(true, done) {
			return
		}
	}
}

// start begins the batch's execution of its writes (read false) or its
// reads, and reports whether the batch has any: all the writes as one
// execution propagating the last submitted value, all the reads as one
// whose value they all return. Reads ordered after the batch's writes is a
// valid linearization because every operation in the batch is concurrent
// with every other. A batch whose epoch a crash ended meanwhile completes
// instead. Callers hold nd.mu.
func (r *RegisterRef) start(read bool, done *[]completion) bool {
	nd := r.nd
	var carrier *batchSub
	var val []byte
	for _, s := range r.batch {
		if s != nil && s.read == read {
			if carrier == nil {
				carrier = s
			}
			val = s.val
		}
	}
	switch {
	case carrier == nil:
		return false
	case carrier.epoch != nd.epoch:
		r.settle(read, nil, tag.Tag{}, nd.downErrLocked(), done)
		return false
	}
	x := nd.getExec()
	x.ref = r
	if read {
		x.start(&nd.proc, execRead, nd.newID(), carrier.op, carrier.epoch, r.reg)
	} else {
		x.start(&nd.proc, execWrite, nd.newID(), carrier.op, carrier.epoch, r.reg)
		x.val, x.rec = val, nd.rec
		if nd.proto.singleWriter {
			// §VI: the writer's own view, materialized at submission,
			// replaces round 1. Its listener logged every completed write
			// before the required self-acknowledgement, so the view never
			// falls behind one, and the recovery count out-mints any
			// unfinished write.
			x.seen = nd.regs[r.reg].tag.Seq
		}
	}
	nd.launch(x, done)
	return true
}

// executed hands x's outcome to the batch's submissions of its kind, then
// starts what comes next: the batch's reads after its writes, else the next
// batch. Callers hold nd.mu.
func (r *RegisterRef) executed(x *execution, done *[]completion) {
	read := x.kind == execRead
	r.settle(read, x.val, x.tag, x.err, done)
	if read || !r.start(true, done) {
		r.next(done)
	}
}

// settle completes the batch's submissions of one kind. Each read returns
// val under wit. The writes return no value; the last one carries wit, the
// tag minted for its surviving value, and the overwritten ones carry no
// witness — a tag names exactly one committed value. Callers hold nd.mu.
func (r *RegisterRef) settle(read bool, val []byte, wit tag.Tag, err error, done *[]completion) {
	last := -1
	for i, s := range r.batch {
		if s != nil && s.read == read {
			last = i
		}
	}
	for i, s := range r.batch {
		switch {
		case s == nil || s.read != read:
			continue
		case read:
			r.nd.complete(s, val, wit, err, done)
		case i == last:
			r.nd.complete(s, nil, wit, err, done)
		default:
			r.nd.complete(s, nil, tag.Tag{}, err, done)
		}
		r.batch[i] = nil
	}
}

// SubmitWrite asynchronously writes val to the named register through the
// batching engine and returns a future for the acknowledgement. Concurrent
// submissions to the same register coalesce into one quorum round;
// submissions to different registers pipeline. Admission errors (down
// process, oversized value, non-writer under RegularSW) are returned
// immediately and leave no trace in the history.
func (nd *Node) SubmitWrite(reg string, val []byte, obs OpObserver) (*Future, error) {
	return nd.RegisterRef(reg).SubmitWrite(val, obs)
}

// SubmitRead asynchronously reads the named register through the batching
// engine. Concurrent submitted reads of one register share a single quorum
// round (and its single write-back) and all return its value.
func (nd *Node) SubmitRead(reg string, obs OpObserver) (*Future, error) {
	return nd.RegisterRef(reg).SubmitRead(ReadDefault, obs)
}

// gatherYields caps the outbox's quiescence probe: its drainer takes once
// the queue stops growing between scheduler yields, or after this many
// yields if producers keep staging — a continuously hot node then ships
// large frames instead of stalling the drainer forever.
const gatherYields = 64

// outbox group-commits the executions' sweeps into per-destination batch
// frames: its drainer gathers at quiescence, then sends everything staged —
// including whatever accumulated while the previous batch was on the wire.
type outbox struct {
	drainQueue[wire.Envelope]
	nd    *Node
	group []wire.Envelope // the drainer's sendPerDest scratch
}

// drain sends the staged envelopes until the queue stays empty, one batch
// frame per destination for each generation taken.
func (ob *outbox) drain() {
	for {
		// Gather at quiescence, not after a fixed window: yield so every
		// runnable producer — submitters, the listener and logger stepping
		// executions — stages into this generation, and take once the queue
		// stops growing. A fixed sleep would serialize into every round
		// trip; yielding costs nothing once the burst is over.
		prev := -1
		for range gatherYields {
			runtime.Gosched()
			n := ob.queued()
			if n == prev {
				break
			}
			prev = n
		}
		buf := ob.take(0)
		if len(buf) == 0 {
			return
		}
		ob.group = ob.nd.sendPerDest(buf, ob.group)
	}
}
