package core

import (
	"recmem/internal/causal"
	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

// listenerGatherLimit bounds how many already-delivered envelopes the
// listener folds into one handling group, and how many queued write
// envelopes the adopter takes into one StoreBatch. Gathering is non-blocking
// — it only picks up what the transport has buffered, typically the contents
// of one batch frame — so it adds no latency, and the bound keeps a single
// group's reply burst and a single group commit from growing without limit
// under sustained load.
const listenerGatherLimit = 128

// adoptQueueLimit bounds the adopter's queue at the mesh's receive bound
// (nettcp's 4096-envelope queue): write envelopes beyond it are dropped —
// fair-lossy, the rounds retransmit — so a slow disk cannot grow the
// replica's memory without limit.
const adoptQueueLimit = 4096

// listen is the node's message listener — the paper's dedicated listener
// thread ("every workstation … one thread that listens for and executes read
// and write commands, and one that responds to broadcasted messages").
// Handlers run sequentially; the node's own client operations run on the
// callers' goroutines and rendezvous with the listener through the pending
// acknowledgement channels.
//
// The listener never waits on the disk (docs/adr/0017): it routes
// acknowledgements and answers SNQuery/Read inline — Fig. 4's read logs
// nothing — and pushes the write kinds onto the node's adopter, whose
// drainer persists them (adopter.drain). Everything already delivered (the
// envelopes of a batch frame land back to back) is gathered into one group,
// and the replies one handled group produced leave as one batch frame per
// destination (sendPerDest). The naive ablation keeps its stores inline: a
// store per step is its point.
func (nd *Node) listen() {
	defer close(nd.listenerDone)
	// Listener-owned scratch, reused across groups.
	var group, replies, scratch []wire.Envelope
	for env := range nd.ep.Recv() {
		group = nd.gather(append(group[:0], env))
		replies = nd.handleGroup(group, replies[:0])
		scratch = nd.sendPerDest(replies, scratch)
		clear(group) // drop value references before reuse
		clear(replies)
	}
}

// gather appends to group every envelope the transport has already
// delivered, up to the group limit. It never blocks.
func (nd *Node) gather(group []wire.Envelope) []wire.Envelope {
	for len(group) < listenerGatherLimit {
		select {
		case env, ok := <-nd.ep.Recv():
			if !ok {
				return group
			}
			group = append(group, env)
		default:
			return group
		}
	}
	return group
}

// handleGroup dispatches one gathered delivery group: acknowledgements are
// routed as they appear, query kinds are answered individually (they never
// log outside the naive ablation), and the write kinds — compacted in place
// to the front of group — are pushed onto the adopter (handled inline for
// Naive). A process that is not serving drops them (a delivery to a down
// process), and so does a full adopter queue (fair-lossy; the rounds
// retransmit). The replies are appended to out. The serving check and the
// push hold nd.mu, as Crash's drop does, so no W delivered before a crash is
// queued after it.
func (nd *Node) handleGroup(group, out []wire.Envelope) []wire.Envelope {
	writes := group[:0]
	for _, env := range group {
		if env.Kind.IsAck() {
			nd.routeAck(env)
			continue
		}
		if nd.tr != nil {
			nd.traceEvent("recv", env.String())
		}
		switch env.Kind {
		case wire.KindSNQuery:
			out = nd.handleSNQuery(env, out)
		case wire.KindRead:
			out = nd.handleRead(env, out)
		case wire.KindWrite, wire.KindWriteBack:
			writes = append(writes, env)
		}
	}
	if len(writes) == 0 {
		return out
	}
	nd.mu.Lock()
	epoch := nd.epoch
	if nd.kind != Naive && nd.servingLocked() {
		nd.adopter.push(writes...)
	}
	nd.mu.Unlock()
	if nd.kind == Naive {
		return nd.handleWriteGroup(writes, epoch, out)
	}
	return out
}

// adopter persists the write envelopes the listener pushes: its drainer is
// the only goroutine that stores written/ (Naive aside). Crash, a failed
// recovery and Close drop its queue under nd.mu (volatile state).
type adopter struct {
	drainQueue[wire.Envelope]
	nd               *Node
	replies, scratch []wire.Envelope
}

// drain takes the oldest queued envelopes, at most listenerGatherLimit at a
// time, and runs handleWriteGroup over them — one StoreBatch — until the
// queue is empty. Being the only written/ store path, it keeps the stores in
// delivery order and never overlaps two of them; the volatile view still
// moves only after each StoreBatch returned, so the store-then-adopt
// invariant OneRoundReads rests on (docs/adr/0015) holds as it did on the
// listener. Writes queued behind a running store join the next group —
// replica-side group commit. Each group is taken together with the epoch it
// was taken under, in one nd.mu section, so a group held through a crash is
// dropped unacknowledged by the epoch check and nothing taken before a crash
// is adopted after the recovery.
func (a *adopter) drain() {
	nd := a.nd
	for {
		nd.mu.Lock()
		batch, epoch := a.take(listenerGatherLimit), nd.epoch
		nd.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		a.replies = nd.handleWriteGroup(batch, epoch, a.replies[:0])
		a.scratch = nd.sendPerDest(a.replies, a.scratch)
		clear(a.replies)
	}
}

// sendPerDest hands envs to the endpoint as this node's, one batch frame per
// destination, each destination's envelopes in their order in envs
// (transport.SendAll: a single envelope, and an endpoint without batch
// support, take the plain Send). With n a handful of processes, a scan per
// destination needs neither a map nor a sort. envs is only read; group is
// the caller's scratch, returned for reuse — the listener, the adopter and
// the outbox each own one.
func (nd *Node) sendPerDest(envs, group []wire.Envelope) []wire.Envelope {
	for to := range int32(nd.n) {
		group = group[:0]
		for _, env := range envs {
			if env.To == to {
				env.From = nd.id
				if nd.tr != nil {
					nd.traceEvent("send", env.String())
				}
				group = append(group, env)
			}
		}
		transport.SendAll(nd.ep, group)
	}
	clear(group[:cap(group)]) // drop value references before reuse
	return group[:0]
}

// routeAck delivers an acknowledgement to the round waiting for it, if any.
// Stale acks (finished rounds, crashed operations) are dropped. The send
// happens under nd.mu on purpose: a round deregisters its RPC under the same
// lock before recycling its (pooled) channel, so holding the lock across the
// non-blocking send is what makes "deregistered" mean "no sender left".
func (nd *Node) routeAck(env wire.Envelope) {
	nd.mu.Lock()
	if ch := nd.pending[env.RPC]; ch != nil {
		select {
		case ch <- env:
		default: // duplicate flood; fair-lossy channels may drop
		}
	}
	nd.mu.Unlock()
}

// servingLocked reports whether the process participates in the protocol
// (alive, or running its recovery procedure). Callers hold nd.mu.
func (nd *Node) servingLocked() bool {
	return nd.state == stateUp || nd.state == stateRecovering
}

// downErrLocked is the error an operation of an ended incarnation fails
// with: ErrClosed after Close, ErrCrashed otherwise. Callers hold nd.mu.
func (nd *Node) downErrLocked() error {
	if nd.state == stateClosed {
		return ErrClosed
	}
	return ErrCrashed
}

// handleSNQuery implements Fig. 4 lines 18–20: reply with the current
// sequence number (we return the full tag; the writer uses its Seq). The
// naive algorithm additionally logs the step. The register view materializes
// lazily — the first query after a restart loads the written/ record.
func (nd *Node) handleSNQuery(env wire.Envelope, out []wire.Envelope) []wire.Envelope {
	cur, epoch, err := nd.regView(env.Reg)
	if err != nil {
		return out // down, crashed mid-load, or the record is unreadable
	}

	depth := int(env.Depth)
	if nd.kind == Naive {
		payload := encodeTagged(cur.tag, nil)
		if err := nd.st.Store(recSNLogPrefix+env.Reg, payload); err != nil {
			return out
		}
		depth = causal.After(depth)
		nd.recordLog(env.Op, depth, len(payload))
		if !nd.stillServing(epoch) {
			return out
		}
	}
	return append(out, wire.Envelope{
		Kind: wire.KindSNAck, To: env.From, Reg: env.Reg,
		RPC: env.RPC, Op: env.Op, Depth: uint8(depth), Tag: cur.tag,
	})
}

// handleRead implements Fig. 4 lines 28–30: reply with the current tagged
// value, materialized from stable storage if this incarnation has not
// touched the register yet (absent record = zero state, the paper's ⊥).
// Under the logging algorithms the tag it reports is always one the written/
// record already carries (see handleWrite), which OneRoundReads relies on —
// also while the adopter holds a store of a newer tag: the view has not moved
// yet, so the answer is the old, logged tag.
func (nd *Node) handleRead(env wire.Envelope, out []wire.Envelope) []wire.Envelope {
	cur, _, err := nd.regView(env.Reg)
	if err != nil {
		return out
	}
	return append(out, wire.Envelope{
		Kind: wire.KindReadAck, To: env.From, Reg: env.Reg,
		RPC: env.RPC, Op: env.Op, Depth: env.Depth, Tag: cur.tag, Value: cur.val,
	})
}

// handleWrite implements Fig. 4 lines 21–27 for both the write's second
// round (W) and the read's write-back round (WB): if the received timestamp
// is higher than the local one, log the new value and adopt it, then
// acknowledge. Logging happens before the volatile update and before the
// acknowledgement — a crash between them behaves like a crash just after
// the log, which the algorithm tolerates. The order is load-bearing beyond
// the write's own ack: the volatile view never runs ahead of the written/
// record; OneRoundReads depends on it (a read ack served from this view must
// not name a tag this process could forget). epoch is the crash generation
// the envelope was taken under: a W never outlives the incarnation that
// received it.
func (nd *Node) handleWrite(env wire.Envelope, epoch uint64, out []wire.Envelope) []wire.Envelope {
	cur, e, err := nd.regView(env.Reg)
	if err != nil || e != epoch {
		return out
	}

	adopt := cur.tag.Less(env.Tag)
	depth := int(env.Depth)
	if logPayload, ok := nd.adoptionLog(env, cur, adopt); ok {
		if err := nd.st.Store(recWrittenPrefix+env.Reg, logPayload); err != nil {
			return out // cannot acknowledge what is not durable
		}
		nd.adoptGroups.Add(1)
		nd.adoptRecords.Add(1)
		depth = causal.After(int(env.Depth))
		nd.recordLog(env.Op, depth, len(logPayload))
		if nd.tr != nil {
			nd.traceEvent("store", recWrittenPrefix+env.Reg+" tag="+env.Tag.String())
		}
	}

	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		nd.mu.Unlock()
		return out // crashed while logging; no acknowledgement
	}
	if adopt && nd.regs[env.Reg].tag.Less(env.Tag) {
		nd.regs[env.Reg] = regState{tag: env.Tag, val: env.Value}
	}
	nd.mu.Unlock()

	return append(out, wire.Envelope{
		Kind: wire.KindWriteAck, To: env.From, Reg: env.Reg,
		RPC: env.RPC, Op: env.Op, Depth: uint8(depth),
	})
}

// handleWriteGroup handles the write/write-back envelopes of one delivery
// group, taken under crash generation epoch, with a single StoreBatch,
// appending their acknowledgements to out. It runs on the adopter (adopt),
// or inline on the listener for Naive. It is semantically a reordering of
// individual deliveries — legal over fair-lossy channels, which reorder
// freely: per register, the envelope carrying the highest timestamp is
// processed first (it is the only possible adoption), after which the rest
// of the register's envelopes find the local timestamp at least as high and
// acknowledge without logging. All winning adoptions then persist as one
// batch — one coalesced engine batch delivered as one frame, one group
// commit — and nothing is acknowledged unless the whole batch is durable.
//
// The naive ablation bypasses the group path: its defining property is a
// store per step, which folding would silently optimize away.
func (nd *Node) handleWriteGroup(envs []wire.Envelope, epoch uint64, out []wire.Envelope) []wire.Envelope {
	if nd.kind == Naive || len(envs) == 1 {
		for _, env := range envs {
			out = nd.handleWrite(env, epoch, out)
		}
		return out
	}

	// Materialize the view of every distinct register in the group. Each
	// regView reports the epoch it is valid under; a crash since the group
	// was taken shows up as an epoch mismatch, and the whole group is
	// dropped — the rounds retransmit, exactly as for a crash detected later.
	cur := make(map[string]regState, len(envs))
	for _, env := range envs {
		if _, ok := cur[env.Reg]; ok {
			continue
		}
		rs, e, err := nd.regView(env.Reg)
		if err != nil || e != epoch {
			return out
		}
		cur[env.Reg] = rs
	}

	// The per-register winner: the highest delivered timestamp.
	best := make(map[string]wire.Envelope, len(cur))
	for _, env := range envs {
		if b, ok := best[env.Reg]; !ok || b.Tag.Less(env.Tag) {
			best[env.Reg] = env
		}
	}
	// Split the winners into those that adopt (volatile update) and those
	// whose adoption additionally requires a log; collect the logs into one
	// batch. The two differ for the no-logging paths (crash-stop, the
	// UnsafeNoReadLog ablation), which adopt without storing.
	adopters := make(map[string]wire.Envelope)
	logged := make(map[string]wire.Envelope)
	var recs []stable.Record
	for reg, env := range best {
		adopt := cur[reg].tag.Less(env.Tag)
		if adopt {
			adopters[reg] = env
		}
		if payload, ok := nd.adoptionLog(env, cur[reg], adopt); ok {
			recs = append(recs, stable.Record{Name: recWrittenPrefix + reg, Data: payload})
			logged[reg] = env
		}
	}
	if len(recs) > 0 {
		if err := nd.st.StoreBatch(recs); err != nil {
			// Cannot acknowledge what is not durable; the rounds retransmit
			// and the whole group is retried.
			return out
		}
		nd.adoptGroups.Add(1)
		nd.adoptRecords.Add(uint64(len(recs)))
		for _, rec := range recs {
			reg := rec.Name[len(recWrittenPrefix):]
			env := logged[reg]
			nd.recordLog(env.Op, causal.After(int(env.Depth)), len(rec.Data))
			if nd.tr != nil {
				nd.traceEvent("store", rec.Name+" tag="+env.Tag.String())
			}
		}
	}

	// Apply the volatile adoptions — only now, after StoreBatch returned: the
	// volatile view never runs ahead of the written/ record; OneRoundReads
	// depends on it — then acknowledge every envelope of the group: the
	// logged winners with their deepened causal depth, the rest exactly as
	// if they had been delivered after the winner.
	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		nd.mu.Unlock()
		return out // crashed while logging; no acknowledgements
	}
	for reg, env := range adopters {
		if nd.regs[reg].tag.Less(env.Tag) {
			nd.regs[reg] = regState{tag: env.Tag, val: env.Value}
		}
	}
	nd.mu.Unlock()

	for _, env := range envs {
		depth := int(env.Depth)
		if win, ok := logged[env.Reg]; ok && win.RPC == env.RPC && win.From == env.From {
			depth = causal.After(depth)
		}
		out = append(out, wire.Envelope{
			Kind: wire.KindWriteAck, To: env.From, Reg: env.Reg,
			RPC: env.RPC, Op: env.Op, Depth: uint8(depth),
		})
	}
	return out
}

// adoptionLog decides whether handling env requires a store, and with what
// payload. The log-optimal algorithms log exactly when they adopt a higher
// timestamp (hence quiescent reads log nowhere); the crash-stop baseline
// never logs; the naive algorithm logs the resulting state on every W; the
// UnsafeNoReadLog ablation suppresses the log for read write-backs to
// demonstrate the Theorem 2 lower bound.
func (nd *Node) adoptionLog(env wire.Envelope, cur regState, adopt bool) ([]byte, bool) {
	if nd.kind == CrashStop {
		return nil, false
	}
	if env.Kind == wire.KindWriteBack && nd.opts.UnsafeNoReadLog {
		return nil, false
	}
	if adopt {
		return encodeTagged(env.Tag, env.Value), true
	}
	if nd.kind == Naive {
		// Log-each-step straw man: persist the (unchanged) state anyway.
		return encodeTagged(cur.tag, cur.val), true
	}
	return nil, false
}

// stillServing re-checks liveness after a blocking store.
func (nd *Node) stillServing(epoch uint64) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.epoch == epoch && nd.servingLocked()
}
