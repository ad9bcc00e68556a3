package core

import (
	"context"

	"recmem/internal/causal"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// OpObserver receives callbacks at the points where an operation's history
// events become definitive. OnInvoke runs inside the node's state lock right
// after the operation is admitted; OnReturn runs inside the same lock only
// if the process did not crash during the operation — val is the value a
// read returns (nil for writes), wit the operation's tag witness: the tag
// the protocol adopted for the written or returned value (zero when none,
// e.g. a coalesced write whose value was superseded within its batch). The
// harness uses these to record invocation/reply events whose order is
// consistent with the crash/recovery events it records through Crash and
// Recover.
type OpObserver struct {
	OnInvoke func(op uint64)
	OnReturn func(op uint64, val []byte, wit tag.Tag)
}

// beginOp admits a client operation on an alive process and fires OnInvoke.
func (nd *Node) beginOp(obs OpObserver) (op uint64, epoch uint64, err error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	switch nd.state {
	case stateUp:
	case stateClosed:
		return 0, 0, ErrClosed
	default:
		return 0, 0, ErrDown
	}
	op = nd.ids.Add(1)
	if obs.OnInvoke != nil {
		obs.OnInvoke(op)
	}
	return op, nd.epoch, nil
}

// endOp fires OnReturn if the operation ran to completion on a process that
// is still in the same incarnation; an operation that raced with a crash is
// reported as ErrCrashed and its invocation stays pending. On success it also
// returns the node's incarnation epoch, read under the same lock that proves
// the crash generation never changed — so the whole operation ran within that
// one incarnation, and the epoch is a truthful witness for remote observers.
//
// An operation whose synchronous caller gave up (await set the future's
// abandoned flag under this same lock) completes silently: the caller was
// told ctx.Err(), so the history must keep showing the invocation pending.
func (nd *Node) endOp(s *batchSub, err error, val []byte, wit tag.Tag) (uint64, error) {
	if err != nil {
		return 0, err
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.state != stateUp || nd.epoch != s.epoch {
		return 0, ErrCrashed
	}
	if !s.fut.abandoned {
		s.fut.replied = true
		if s.obs.OnReturn != nil {
			s.obs.OnReturn(s.op, val, wit)
		}
	}
	return nd.inc, nil
}

// await is the synchronous half of an operation: block until the submitted
// operation completes or ctx ends. A caller whose ctx ends abandons the
// operation, not just the wait — the engine still runs it to completion (or
// to the next crash), but endOp will not record a reply for it, exactly what
// an aborted round used to leave behind. If endOp already recorded the reply
// the result is moments away and is returned instead of ctx.Err(), so the
// caller never sees an error for an operation the history shows complete.
func (nd *Node) await(ctx context.Context, fut *Future) error {
	select {
	case <-fut.Done():
		return fut.err
	case <-ctx.Done():
	}
	nd.mu.Lock()
	abandon := !fut.replied
	fut.abandoned = abandon
	nd.mu.Unlock()
	if abandon {
		return ctx.Err()
	}
	<-fut.Done()
	return fut.err
}

// Write emulates the register's write operation at this process. It blocks
// until a majority acknowledges (robustness: it terminates provided the
// process does not crash and a majority is eventually permanently up) and
// returns the operation id used for accounting.
func (nd *Node) Write(ctx context.Context, reg string, val []byte, obs OpObserver) (uint64, error) {
	op, _, _, err := nd.RegisterRef(reg).Write(ctx, val, obs)
	return op, err
}

// writeProtocol is the one write of every algorithm: a sequence-number
// query round, the timestamp mint, an optional writer pre-log (Fig. 4 line
// 12), and the propagation round. The §VI single writer (proto.singleWriter)
// owns the sequence numbers, so it takes its own view instead of round 1 and
// its round 2 must include its own acknowledgement. The returned tag is the
// minted timestamp — the write's tag witness (zero if the execution failed
// before minting). epoch is the one it runs under; q is the register's queue.
//
// Only the register's engine dispatcher calls this, one execution at a time:
// the minted timestamp is derived from the queried majority maximum, so two
// concurrent executions for one register would mint the same timestamp for
// different values.
func (nd *Node) writeProtocol(ctx context.Context, q *regQueue, op, epoch uint64, val []byte) (tag.Tag, error) {
	reg := q.ref.reg
	depth := 0
	if nd.proto.everyStep {
		// §I-C straw man: log the intent before doing anything.
		depth = causal.After(depth)
		if err := nd.storeLog(&q.pre, epoch, op, depth, recWStartPrefix+reg, encodeTagged(tag.Tag{Writer: nd.id}, val)); err != nil {
			return tag.Tag{}, err
		}
	}

	var seen int64
	propagate := broadcast
	if nd.proto.singleWriter {
		// §VI: the writer's own view replaces round 1. Its listener logged
		// every completed write before the required self-acknowledgement,
		// so the view (lazily reloaded after a restart) never falls behind
		// one, and mintTag's recovery count out-mints any unfinished write.
		rs, _, err := nd.regView(reg)
		if err != nil {
			return tag.Tag{}, err
		}
		seen, propagate = rs.tag.Seq, roundOpts{require: nd.id, to: -1}
	} else {
		// Round 1: collect sequence numbers from a majority (Fig. 4 lines 7–10).
		acks, err := nd.runRoundOpts(ctx, op, epoch, wire.Envelope{Kind: wire.KindSNQuery, Reg: reg, Depth: uint8(depth)}, broadcast)
		if err != nil {
			return tag.Tag{}, err
		}
		depth, seen = maxAckDepth(acks, depth), maxAckSeq(acks)
	}
	newTag := nd.mintTag(seen)

	// Writer pre-log (Fig. 4 line 12): the persistent algorithm's second
	// causal log; it lets recovery finish the write and pins the minted
	// timestamp so it can never be reused for a different value. One
	// coalesced batch mints one tag, so this is the batch's single pre-log.
	if nd.proto.preLog {
		depth = causal.After(depth)
		if err := nd.storeLog(&q.pre, epoch, op, depth, recWritingPrefix+reg, encodeTagged(newTag, val)); err != nil {
			return tag.Tag{}, err
		}
	}

	// Round 2: propagate the tagged value to a majority (Fig. 4 lines 13–15).
	_, err := nd.runRoundOpts(ctx, op, epoch, wire.Envelope{
		Kind: wire.KindWrite, Reg: reg, Tag: newTag, Value: val, Depth: uint8(depth),
	}, propagate)
	if err != nil {
		return tag.Tag{}, err
	}
	return newTag, nil
}

// mintTag computes the new write timestamp from the highest sequence number
// the write has seen. All minting goes through tag.Next, so the [sn, pid]
// advancement rule lives in exactly one place: Fig. 4 line 11's sn := sn + 1,
// or under proto.recMint Fig. 5 line 11's sn := sn + rec + 1, the persisted
// recovery count compensating for the pre-log the write does not perform
// (nd.rec stays 0 on every other row). Under proto.hardened the count also
// rides as the Rec tiebreak (docs/adr/0024).
func (nd *Node) mintTag(maxSeq int64) tag.Tag {
	rec := nd.RecoveryCount()
	if nd.proto.hardened {
		return tag.Tag{Seq: maxSeq}.Next(nd.id, int64(rec), rec)
	}
	return tag.Tag{Seq: maxSeq}.Next(nd.id, int64(rec), 0)
}

// Read emulates the register's read operation at this process: query a
// majority for tagged values, pick the highest, and write it back to a
// majority before returning it (Fig. 4 lines 31–39). In the absence of
// concurrent writes the write-back finds the timestamp already adopted
// everywhere and nobody logs — and with Options.OneRoundReads a read whose
// majority already agrees on one tag skips that round altogether. A nil
// value with ok semantics maps to the register's initial value ⊥.
func (nd *Node) Read(ctx context.Context, reg string, obs OpObserver) ([]byte, uint64, error) {
	val, op, _, _, err := nd.RegisterRef(reg).Read(ctx, ReadDefault, obs)
	return val, op, err
}

// readProtocol returns the read value together with the tag under which it
// was adopted — the read's tag witness. Like writeProtocol, only q's
// dispatcher calls it.
func (nd *Node) readProtocol(ctx context.Context, q *regQueue, op, epoch uint64) ([]byte, tag.Tag, error) {
	reg := q.ref.reg
	// Round 1: collect tagged values from a majority.
	acks, err := nd.runRoundOpts(ctx, op, epoch, wire.Envelope{Kind: wire.KindRead, Reg: reg}, broadcast)
	if err != nil {
		return nil, tag.Tag{}, err
	}
	best := bestAck(acks)

	// §VI single-writer regular register: the read returns immediately —
	// no write-back round and no logging anywhere. Regularity does not
	// require reads to "write", which is exactly why the paper concludes
	// weaker registers are not worth emulating where logging dominates:
	// the atomic read also logs nothing unless it observes concurrency.
	//
	// OneRoundReads extends that observation from logs to messages: a
	// majority that already agrees on best.Tag holds it logged — a replica
	// never reports a tag its written/ record does not carry — which is the
	// state the write-back round exists to establish (docs/adr/0015).
	if nd.proto.singleWriter {
		return best.Value, best.Tag, nil
	}
	if nd.proto.oneRound && acksAgree(acks, best.Tag) {
		nd.readsOne.Add(1)
		return best.Value, best.Tag, nil
	}

	depth := 0
	if nd.proto.everyStep {
		// Straw man: the reader logs what it is about to write back.
		depth = causal.After(depth)
		if err := nd.storeLog(&q.pre, epoch, op, depth, recWStartPrefix+reg, encodeTagged(best.Tag, best.Value)); err != nil {
			return nil, tag.Tag{}, err
		}
	}

	// Round 2: write the value with the highest timestamp back to a
	// majority, so the read's result is never lost even if the original
	// writer's propagation had only partially completed.
	_, err = nd.runRoundOpts(ctx, op, epoch, wire.Envelope{
		Kind: wire.KindWriteBack, Reg: reg, Tag: best.Tag, Value: best.Value, Depth: uint8(depth),
	}, broadcast)
	if err != nil {
		return nil, tag.Tag{}, err
	}
	nd.readsTwo.Add(1)
	return best.Value, best.Tag, nil
}
