package core

import (
	"context"
	"hash/maphash"
	"runtime"
	"sync"

	"recmem/internal/tag"
	"recmem/internal/wire"
)

// This file implements the node's batching + pipelining engine (docs/adr/
// 0001): an asynchronous submission API (SubmitWrite/SubmitRead returning
// futures) backed by a per-register sharded dispatcher.
//
// Two amortizations stack on top of the paper's algorithms, neither of which
// changes a single protocol rule:
//
//   - Operation coalescing. All writes to one register that are pending at
//     the same process when a dispatch begins are folded into ONE execution
//     of the two-round write protocol: one sequence-number query, one minted
//     tag, one propagation of the last submitted value, and therefore one
//     causal log chain for the whole batch. This is sound because the
//     coalesced writes are pairwise concurrent (all submitted before the
//     round starts, all completed after it commits), so linearizing them
//     back to back at the commit point — earlier submissions immediately
//     overwritten by later ones — is a valid ordering; the acknowledgement
//     every submitter receives is backed by the batch's value being durable
//     at a majority under a tag at least as high as any the folded writes
//     would have minted. Pending reads coalesce the same way into one
//     execution of the read protocol (query majority, write back), all
//     returning its value.
//   - Register pipelining. Each register's dispatcher runs independently, so
//     rounds for different registers overlap in flight instead of
//     serializing on the node's operation mutex; the node-level outbox
//     group-commits the broadcasts of concurrently running rounds into
//     per-destination batch frames (wire.EncodeBatch), so one network
//     round-trip carries the coalesced rounds of many registers.
//
// The synchronous Write/Read are this same path — submit, then wait for the
// future under opMu, which models the paper's sequential process (docs/adr/
// 0011). A register's dispatcher is the only caller of its write protocol,
// so no two executions at one node can mint the same timestamp for different
// values, whichever API submitted them; mixing the two APIs on one node only
// forfeits the per-process program order the synchronous calls guarantee.

// batchSub is one submitted operation waiting in a register's queue. Subs
// are engine-owned — created at submission, consumed by exactly one flush —
// so they recycle through a pool: the steady-state submission path allocates
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
// only ever holds the future), so flush can release each one as soon as its
// future completed.
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

// engineShards is the number of locks the register-queue map is split
// across; submissions for different registers rarely contend.
const engineShards = 16

// engine is the per-node batching dispatcher.
type engine struct {
	nd     *Node
	seed   maphash.Seed
	shards [engineShards]engineShard
}

// engineShard guards one slice of the register-queue map; each queue has its
// own lock.
type engineShard struct {
	mu   sync.Mutex
	regs map[string]*regQueue
}

// regQueue is the pending-submission queue of one register. Its drainer is
// the register's dispatcher: the only caller of the register's protocols,
// whose one pre-log in flight at a time waits in pre (storeLog). ref is the
// register's handle, which Node.RegisterRef hands out, and carries its name.
type regQueue struct {
	drainQueue[*batchSub]
	eng *engine
	pre preLog
	ref RegisterRef
}

func newEngine(nd *Node) *engine {
	eng := &engine{nd: nd, seed: maphash.MakeSeed()}
	for i := range eng.shards {
		eng.shards[i].regs = make(map[string]*regQueue)
	}
	return eng
}

// queueFor resolves (creating on first use) the register's queue. Queues are
// never removed from the map, so the returned pointer — and the handle it
// holds — stays valid for the node's lifetime: a RegisterRef takes the
// maphash + map lookup off the per-operation hot path.
func (eng *engine) queueFor(reg string) *regQueue {
	sh := &eng.shards[maphash.String(eng.seed, reg)%engineShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.regs[reg]
	if q == nil {
		q = &regQueue{}
		q.eng, q.owner = eng, q
		q.ref = RegisterRef{nd: eng.nd, reg: reg, q: q}
		sh.regs[reg] = q
	}
	return q
}

// drain dispatches batches for the register until its queue is empty: each
// take is everything pending, flushed as one batch, so submissions arriving
// during a flush form the next batch — group commit. Every sub was consumed
// (its future completed) by the flush; only then can the subs recycle.
func (q *regQueue) drain() {
	for {
		batch := q.take(0)
		if len(batch) == 0 {
			return
		}
		q.eng.flush(q, batch)
		for _, s := range batch {
			putSub(s)
		}
	}
}

// flush executes one batch: all writes coalesce into one write-protocol
// execution propagating the last submitted value, then all reads coalesce
// into one read-protocol execution. Reads ordered after the batch's writes
// is a valid linearization because every operation in the batch is
// concurrent with every other. Completion fires each future's registered
// callback inline (docs/adr/0010); the batch is partitioned by two passes
// over the slice instead of materializing per-kind sub-slices, and the
// dispatcher recycles the consumed subs once the flush returns.
//
// Nothing outlives the incarnation that took it (docs/adr/0018): a sub
// submitted before a crash completes here with ErrCrashed and runs nothing,
// and the executions carry the epoch they start under into every round.
func (eng *engine) flush(q *regQueue, batch []*batchSub) {
	nd := eng.nd
	nd.mu.Lock()
	epoch, dead := nd.epoch, nd.downErrLocked()
	nd.mu.Unlock()
	writeCarrier, readCarrier := -1, -1
	lastWrite := -1
	var finalVal []byte
	for i, s := range batch {
		if s.epoch != epoch {
			nd.finish(s, nil, tag.Tag{}, dead)
			continue
		}
		if s.read {
			if readCarrier < 0 {
				readCarrier = i
			}
		} else {
			if writeCarrier < 0 {
				writeCarrier = i
			}
			lastWrite = i
			finalVal = s.val
		}
	}
	ctx := context.Background() // rounds abort via crashCh on crash/close
	if writeCarrier >= 0 {
		wit, err := nd.writeProtocol(ctx, q, batch[writeCarrier].op, epoch, finalVal)
		for i, s := range batch {
			if s.read || s.epoch != epoch {
				continue
			}
			// The batch mints one tag for its surviving (last) value; the
			// overwritten submissions carry no witness — a tag names exactly
			// one committed value.
			w := tag.Tag{}
			if i == lastWrite {
				w = wit
			}
			nd.finish(s, nil, w, err)
		}
	}
	if readCarrier >= 0 {
		val, wit, err := nd.readProtocol(ctx, q, batch[readCarrier].op, epoch)
		for _, s := range batch {
			if s.read && s.epoch == epoch {
				nd.finish(s, val, wit, err)
			}
		}
	}
}

// finish settles one submitted operation: the history reply (endOp), then
// the future.
func (nd *Node) finish(s *batchSub, val []byte, wit tag.Tag, err error) {
	inc, err := nd.endOp(s, err, val, wit)
	s.fut.complete(val, wit, inc, err)
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

// outbox group-commits outgoing round broadcasts into per-destination batch
// frames. Rounds push their sweeps and return; the queue's drainer gathers at
// quiescence, then sends everything staged — including whatever accumulated
// while the previous batch was on the wire.
type outbox struct {
	drainQueue[wire.Envelope]
	nd    *Node
	group []wire.Envelope // the drainer's sendPerDest scratch
}

// drain sends the staged envelopes until the queue stays empty, one batch
// frame per destination for each generation taken.
func (ob *outbox) drain() {
	for {
		// Gather at quiescence instead of after a fixed wall-clock window:
		// yield the processor so every runnable producer — the register
		// dispatchers staging their sweeps, handlers answering arrived
		// envelopes — gets to stage into this generation, and take once the
		// queue stops growing between yields. A fixed sleep here serializes
		// into every quorum round-trip of the pipeline; yielding costs
		// nothing once the staging burst is over but still coalesces exactly
		// the rounds that were concurrently runnable.
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
