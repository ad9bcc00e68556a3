package core

import (
	"recmem/internal/causal"
	"recmem/internal/stable"
	"recmem/internal/wire"
)

// listenerGatherLimit bounds how many already-delivered envelopes the
// listener folds into one handling group. Gathering is non-blocking — it
// only picks up what the transport has buffered, typically the contents of
// one batch frame — so it adds no latency, and the bound keeps a single
// group's StoreBatch from growing without limit under sustained load.
const listenerGatherLimit = 128

// listen is the node's message listener — the paper's dedicated listener
// thread ("every workstation … one thread that listens for and executes read
// and write commands, and one that responds to broadcasted messages").
// Handlers run sequentially; the node's own client operations run on the
// callers' goroutines and rendezvous with the listener through the pending
// acknowledgement channels.
//
// The listener is group-commit aware: everything already delivered (the
// envelopes of a batch frame land back to back) is gathered and the write
// adoptions of the whole group are persisted through one StoreBatch — one
// coalesced engine batch arriving as one frame costs one disk flush instead
// of one per register (see handleWriteGroup).
func (nd *Node) listen() {
	defer close(nd.listenerDone)
	for env := range nd.ep.Recv() {
		group := nd.gather(env)
		nd.handleGroup(group)
	}
}

// gather returns first plus every envelope the transport has already
// delivered, up to the group limit. It never blocks.
func (nd *Node) gather(first wire.Envelope) []wire.Envelope {
	group := []wire.Envelope{first}
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
// routed as they appear, query kinds are handled individually (they never
// log outside the naive ablation), and the write kinds are folded into one
// group-committed adoption.
func (nd *Node) handleGroup(group []wire.Envelope) {
	var writes []wire.Envelope
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
			nd.handleSNQuery(env)
		case wire.KindRead:
			nd.handleRead(env)
		case wire.KindWrite, wire.KindWriteBack:
			writes = append(writes, env)
		}
	}
	if len(writes) > 0 {
		nd.handleWriteGroup(writes)
	}
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

// send stamps the sender id and transmits.
func (nd *Node) send(env wire.Envelope) {
	env.From = nd.id
	if nd.tr != nil {
		nd.traceEvent("send", env.String())
	}
	nd.ep.Send(env)
}

// handleSNQuery implements Fig. 4 lines 18–20: reply with the current
// sequence number (we return the full tag; the writer uses its Seq). The
// naive algorithm additionally logs the step. The register view materializes
// lazily — the first query after a restart loads the written/ record.
func (nd *Node) handleSNQuery(env wire.Envelope) {
	cur, epoch, err := nd.regView(env.Reg)
	if err != nil {
		return // down, crashed mid-load, or the record is unreadable
	}

	depth := int(env.Depth)
	if nd.kind == Naive {
		payload := encodeTagged(cur.tag, nil)
		if err := nd.st.Store(recSNLogPrefix+env.Reg, payload); err != nil {
			return
		}
		depth = causal.After(depth)
		nd.recordLog(env.Op, depth, len(payload))
		if !nd.stillServing(epoch) {
			return
		}
	}
	nd.send(wire.Envelope{
		Kind: wire.KindSNAck, To: env.From, Reg: env.Reg,
		RPC: env.RPC, Op: env.Op, Depth: uint8(depth), Tag: cur.tag,
	})
}

// handleRead implements Fig. 4 lines 28–30: reply with the current tagged
// value, materialized from stable storage if this incarnation has not
// touched the register yet (absent record = zero state, the paper's ⊥).
// Under the logging algorithms the tag it reports is always one the written/
// record already carries (see handleWrite), which OneRoundReads relies on.
func (nd *Node) handleRead(env wire.Envelope) {
	cur, _, err := nd.regView(env.Reg)
	if err != nil {
		return
	}
	nd.send(wire.Envelope{
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
// not name a tag this process could forget).
func (nd *Node) handleWrite(env wire.Envelope) {
	cur, epoch, err := nd.regView(env.Reg)
	if err != nil {
		return
	}

	adopt := cur.tag.Less(env.Tag)
	depth := int(env.Depth)
	if logPayload, ok := nd.adoptionLog(env, cur, adopt); ok {
		if err := nd.st.Store(recWrittenPrefix+env.Reg, logPayload); err != nil {
			return // cannot acknowledge what is not durable
		}
		depth = causal.After(int(env.Depth))
		nd.recordLog(env.Op, depth, len(logPayload))
		if nd.tr != nil {
			nd.traceEvent("store", recWrittenPrefix+env.Reg+" tag="+env.Tag.String())
		}
	}

	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		nd.mu.Unlock()
		return // crashed while logging; no acknowledgement
	}
	if adopt && nd.regs[env.Reg].tag.Less(env.Tag) {
		nd.regs[env.Reg] = regState{tag: env.Tag, val: env.Value}
	}
	nd.mu.Unlock()

	nd.send(wire.Envelope{
		Kind: wire.KindWriteAck, To: env.From, Reg: env.Reg,
		RPC: env.RPC, Op: env.Op, Depth: uint8(depth),
	})
}

// handleWriteGroup handles the write/write-back envelopes of one delivery
// group with a single StoreBatch. It is semantically a reordering of
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
func (nd *Node) handleWriteGroup(envs []wire.Envelope) {
	if nd.kind == Naive || len(envs) == 1 {
		for _, env := range envs {
			nd.handleWrite(env)
		}
		return
	}

	// Materialize the view of every distinct register in the group. Each
	// regView reports the epoch it is valid under; a crash between two loads
	// shows up as an epoch mismatch, and the whole group is dropped — the
	// rounds retransmit, exactly as for a crash detected later.
	var epoch uint64
	cur := make(map[string]regState, len(envs))
	for _, env := range envs {
		if _, ok := cur[env.Reg]; ok {
			continue
		}
		rs, e, err := nd.regView(env.Reg)
		if err != nil || (len(cur) > 0 && e != epoch) {
			return
		}
		epoch = e
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
			return
		}
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
		return // crashed while logging; no acknowledgements
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
		nd.send(wire.Envelope{
			Kind: wire.KindWriteAck, To: env.From, Reg: env.Reg,
			RPC: env.RPC, Op: env.Op, Depth: uint8(depth),
		})
	}
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
