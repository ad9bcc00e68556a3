package core

import (
	"context"
	"time"

	"recmem/internal/tag"
	"recmem/internal/wire"
)

// roundOpts shapes a round beyond the default broadcast-to-all,
// majority-acknowledged form.
type roundOpts struct {
	// require, if a valid process id, must be among the collected
	// acknowledgements before the round completes (-1: any quorum). The
	// RegularSW writer requires its own acknowledgement, which certifies that
	// its own listener has logged the new timestamp — the synchronization
	// that keeps the single writer's timestamps strictly monotone across
	// crashes.
	require int32
	// to, if a valid process id, restricts the round to that single
	// destination (-1: broadcast to all processes). The §VI safe read is a
	// round addressed to the writer alone.
	to int32
	// quorum overrides the number of distinct acknowledgements required
	// (0: the majority ⌈(n+1)/2⌉).
	quorum int
}

// broadcast is the default round shape: to everyone, any majority.
var broadcast = roundOpts{require: -1, to: -1}

// roundState is the per-round working set — the acknowledgement channel, the
// sweep scratch slice, and the retransmission timer — pooled
// per node so a round's setup allocates only its result map (which escapes to
// the protocol layer). The channel is safe to recycle because routeAck sends
// only while holding nd.mu: once the round deregisters its RPC under the same
// lock, no sender can hold a reference, and a post-deregistration drain
// leaves the channel empty for the next round.
type roundState struct {
	ch    chan wire.Envelope
	sweep []wire.Envelope
	timer *time.Timer
}

// getRound takes a round state from the node's pool, with the timer armed.
func (nd *Node) getRound() *roundState {
	rs, _ := nd.roundPool.Get().(*roundState)
	if rs == nil {
		rs = &roundState{ch: make(chan wire.Envelope, 4*nd.n)}
	}
	if rs.timer == nil {
		rs.timer = time.NewTimer(nd.opts.RetransmitEvery)
	} else {
		rs.timer.Reset(nd.opts.RetransmitEvery) // released drained and stopped
	}
	return rs
}

// putRound disarms and recycles a round state. The caller must already have
// deregistered the round's RPC from nd.pending.
func (nd *Node) putRound(rs *roundState) {
	if !rs.timer.Stop() {
		select {
		case <-rs.timer.C:
		default:
		}
	}
	for {
		select {
		case <-rs.ch: // late duplicates staged before deregistration
			continue
		default:
		}
		break
	}
	for i := range rs.sweep {
		rs.sweep[i] = wire.Envelope{} // drop value references
	}
	rs.sweep = rs.sweep[:0]
	nd.roundPool.Put(rs)
}

// runRoundOpts sends req to the round's destinations and blocks until
// acknowledgements from a quorum of distinct processes arrive — the paper's
//
//	repeat send(...) to all until receive(... ack) from ⌈(n+1)/2⌉ processes
//
// Over fair-lossy channels the sweep is retransmitted periodically; the
// collected acknowledgements are deduplicated by sender. Every sweep is
// staged through the node's outbox, so sweeps of concurrently running rounds
// (different registers of the engine) group-commit into per-destination
// batch frames, while a lone round's envelopes go out as the individual
// messages the paper counts. A round of an execution a crash has ended (its
// epoch is not current) fails with ErrCrashed before sending anything, also
// after a recovery (docs/adr/0018). A running round aborts with ErrCrashed
// if the process crashes, or with the context's error on cancellation; it
// otherwise blocks for as long as a quorum is unreachable, which is exactly
// the robustness contract (operations by processes that do not crash
// terminate once a majority is permanently up).
func (nd *Node) runRoundOpts(ctx context.Context, op, epoch uint64, req wire.Envelope, o roundOpts) (map[int32]wire.Envelope, error) {
	rpc := nd.newID()
	req.RPC = rpc
	req.Op = op
	quorum := o.quorum
	if quorum <= 0 {
		quorum = nd.quorum
	}

	rs := nd.getRound()
	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		err := nd.downErrLocked()
		nd.mu.Unlock()
		nd.putRound(rs)
		return nil, err
	}
	crashCh := nd.crashCh
	nd.pending[rpc] = rs.ch
	nd.mu.Unlock()
	defer func() {
		nd.mu.Lock()
		delete(nd.pending, rpc)
		nd.mu.Unlock()
		nd.putRound(rs)
	}()

	// The sweep: req addressed to each destination, staged anew on every
	// retransmission.
	first, last := int32(0), int32(nd.n)-1
	if o.to >= 0 {
		first, last = o.to, o.to
	}
	sweep := rs.sweep
	for to := first; to <= last; to++ {
		req.To = to
		sweep = append(sweep, req)
	}
	rs.sweep = sweep

	acks := make(map[int32]wire.Envelope, nd.n)
	sweeps := 0
	for {
		sweeps++
		nd.ob.push(sweep...)
	collect:
		for {
			select {
			case env := <-rs.ch:
				if _, dup := acks[env.From]; dup {
					continue
				}
				acks[env.From] = env
				if len(acks) >= quorum {
					if o.require >= 0 {
						if _, ok := acks[o.require]; !ok {
							continue
						}
					}
					nd.recordRound(op, sweeps*len(sweep), sweeps-1)
					return acks, nil
				}
			case <-rs.timer.C:
				rs.timer.Reset(nd.opts.RetransmitEvery)
				break collect // retransmission sweep
			case <-crashCh:
				return nil, ErrCrashed
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// maxAckDepth returns the largest causal log depth reported by the
// acknowledgements, floored at the depth the request carried.
func maxAckDepth(acks map[int32]wire.Envelope, floor int) int {
	depth := floor
	for _, a := range acks {
		if int(a.Depth) > depth {
			depth = int(a.Depth)
		}
	}
	return depth
}

// maxAckSeq returns the highest sequence number among the acknowledged tags
// (Fig. 4 line 10: "select highest sn").
func maxAckSeq(acks map[int32]wire.Envelope) int64 {
	var max int64
	for _, a := range acks {
		if a.Tag.Seq > max {
			max = a.Tag.Seq
		}
	}
	return max
}

// bestAck returns the acknowledgement carrying the lexicographically highest
// tag (Fig. 4 line 35: "select v with highest [sn, pid]").
func bestAck(acks map[int32]wire.Envelope) wire.Envelope {
	var best wire.Envelope
	first := true
	for _, a := range acks {
		if first || best.Tag.Less(a.Tag) {
			best = a
			first = false
		}
	}
	return best
}

// acksAgree reports whether every acknowledgement carries exactly the tag t
// (all of Seq, Writer and Rec) — the OneRoundReads condition. A broadcast
// round returns as soon as a majority answered, so this is "the majority the
// read heard is unanimous".
func acksAgree(acks map[int32]wire.Envelope, t tag.Tag) bool {
	for _, a := range acks {
		if a.Tag != t {
			return false
		}
	}
	return true
}
