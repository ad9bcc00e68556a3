package core

import (
	"errors"
	"sync"

	"recmem/internal/causal"
	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

// listenerGatherLimit bounds how many already-delivered envelopes the
// listener folds into one handling group, and how many queued items the
// logger takes into one StoreBatch. Gathering is non-blocking — it only picks
// up what the transport has buffered, typically the contents of one batch
// frame — so it adds no latency, and the bound keeps a single group's reply
// burst and a single group commit from growing without limit under sustained
// load.
const listenerGatherLimit = 128

// adoptQueueLimit bounds the write envelopes queued on the logger at the
// mesh's receive bound (nettcp's 4096-envelope queue): envelopes beyond it
// are dropped — fair-lossy, the rounds retransmit — so a slow disk cannot
// grow the replica's memory without limit. Pre-logs do not count: each
// register's dispatcher queues at most one, and none is ever dropped.
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
// nothing — and pushes the write kinds onto the node's logger, whose drainer
// persists them (adopter.drain). Everything already delivered (the
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
// to the front of group — are queued on the logger (handled inline for
// Naive). A process that is not serving drops them (a delivery to a down
// process), and so does a full logger queue (fair-lossy; the rounds
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
		nd.adopter.admit(writes)
	}
	nd.mu.Unlock()
	if nd.kind == Naive {
		for _, env := range writes {
			out = nd.handleWrite(env, epoch, out)
		}
	}
	return out
}

// logItem is one entry of the logger's queue: a W or WB envelope to adopt,
// or, when pre is set, a log of one of the node's own executions.
type logItem struct {
	env wire.Envelope
	pre *preLog
}

// preLog is one causal log of an execution's own chain — the writer's
// writing/ pre-log, or Naive's intent logs — on its way through the logger
// (storeLog). A register's dispatcher has at most one in flight, so its
// regQueue owns it and waiting allocates nothing. It completes exactly once:
// by the logger with its group's StoreBatch result, or by a crash's drop.
type preLog struct {
	rec  stable.Record
	err  error
	wait sync.WaitGroup
}

// complete hands the execution waiting in storeLog its log's outcome.
func (w *preLog) complete(err error) {
	w.err = err
	w.wait.Done()
}

// adopter is the node's logger (docs/adr/0019): its drainer is the only
// goroutine that stores while the node serves (recovery and Naive's inline
// listener stores aside). It persists the write envelopes the listener
// pushes and the pre-logs storeLog pushes, whatever was queued together as
// one StoreBatch. Its queue is pushed, taken and dropped under nd.mu; Crash,
// a failed recovery and Close drop it.
type adopter struct {
	drainQueue[logItem]
	nd               *Node
	envs             int // queued envelopes, bounded by adoptQueueLimit; guarded by nd.mu
	replies, scratch []wire.Envelope
}

// admit queues the write envelopes of one delivery group, as many as
// adoptQueueLimit leaves room for. Callers hold nd.mu.
func (a *adopter) admit(envs []wire.Envelope) {
	envs = envs[:min(len(envs), adoptQueueLimit-a.envs)]
	for _, env := range envs {
		a.push(logItem{env: env})
	}
	a.envs += len(envs)
}

// drop discards the queued envelopes and fails the queued pre-logs with err
// — a crash loses volatile state. A group already taken is a store under
// way; it completes. Callers hold nd.mu.
func (a *adopter) drop(err error) {
	a.drainQueue.drop(func(it logItem) {
		if it.pre != nil {
			it.pre.complete(err)
		}
	})
	a.envs = 0
}

// drain takes the oldest queued items, at most listenerGatherLimit at a
// time, and commits each group — one StoreBatch — until the queue is empty.
// Being the only store path of a serving node, it keeps the stores in queue
// order and never overlaps two of them; whatever is queued behind a running
// store joins the next group — group commit with no timer. Each group is
// taken together with the epoch it was taken under, in one nd.mu section, so
// a group held through a crash is dropped unacknowledged by the epoch check
// and nothing taken before a crash is adopted after the recovery.
func (a *adopter) drain() {
	nd := a.nd
	for {
		nd.mu.Lock()
		batch, epoch := a.take(listenerGatherLimit), nd.epoch
		for _, it := range batch {
			if it.pre == nil {
				a.envs--
			}
		}
		nd.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		a.replies = nd.commitGroup(batch, epoch, a.replies[:0])
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

// handleWrite implements Fig. 4 lines 21–27 for Naive, inline on the
// listener, for both the write's second round (W) and the read's write-back
// round (WB): log the resulting state — the straw man logs every step, even
// one that changes nothing — adopt the received timestamp if it is higher
// than the local one, then acknowledge. epoch is the crash generation the
// envelope was received under: a W never outlives the incarnation that
// received it.
func (nd *Node) handleWrite(env wire.Envelope, epoch uint64, out []wire.Envelope) []wire.Envelope {
	cur, e, err := nd.regView(env.Reg)
	if err != nil || e != epoch {
		return out
	}

	adopt := cur.tag.Less(env.Tag)
	depth := int(env.Depth)
	if nd.logsAdoption(env) {
		state := cur
		if adopt {
			state = regState{tag: env.Tag, val: env.Value}
		}
		payload := encodeTagged(state.tag, state.val)
		if err := nd.st.Store(recWrittenPrefix+env.Reg, payload); err != nil {
			return out // cannot acknowledge what is not durable
		}
		depth = causal.After(int(env.Depth))
		nd.recordLog(env.Op, depth, len(payload))
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

// commitGroup stores one logger group, taken under crash generation epoch,
// with a single StoreBatch and appends the acknowledgements of its envelopes
// to out. It implements Fig. 4 lines 21–27 for both the write's second round
// (W) and the read's write-back round (WB), as a reordering of individual
// deliveries — legal over fair-lossy channels, which reorder freely: per
// register, the envelope carrying the highest timestamp is processed first
// (it is the only possible adoption), after which the rest of the register's
// envelopes find the local timestamp at least as high and acknowledge
// without logging. The winning adoptions' written/ records and the group's
// pre-logs persist as one batch — one group commit — and nothing is
// acknowledged unless the whole batch is durable.
//
// Logging happens before the volatile update and before the acknowledgement
// — a crash between them behaves like a crash just after the log, which the
// algorithm tolerates. The order is load-bearing beyond the write's own ack:
// the volatile view never runs ahead of the written/ record; OneRoundReads
// depends on it (a read ack served from this view must not name a tag this
// process could forget). The pre-logs' executions are woken as soon as the
// batch returns: Fig. 4 asks only that the pre-log is durable before the
// write's round 2 starts.
func (nd *Node) commitGroup(batch []logItem, epoch uint64, out []wire.Envelope) []wire.Envelope {
	// settle completes the group's pre-logs with the outcome of its store.
	settle := func(err error) {
		for _, it := range batch {
			if it.pre != nil {
				it.pre.complete(err)
			}
		}
	}
	// The per-register winner: the highest delivered timestamp.
	win := make(map[string]wire.Envelope, len(batch))
	for _, it := range batch {
		if it.pre != nil {
			continue
		}
		if w, ok := win[it.env.Reg]; !ok || w.Tag.Less(it.env.Tag) {
			win[it.env.Reg] = it.env
		}
	}
	// Keep the winners that adopt, and collect the logs their adoptions
	// require into one batch. The two differ for the no-logging paths
	// (crash-stop, the UnsafeNoReadLog ablation), which adopt without
	// storing. Each regView materializes the entry before the store begins,
	// so a concurrent load never inserts a record whose store has not
	// returned. A view that cannot be read under epoch — a crash since the
	// take, or an unreadable record — fails the whole group before anything
	// is stored: no envelope is acknowledged (the rounds retransmit, exactly
	// as for a crash detected later) and no pre-log of a dead incarnation is
	// written.
	var recs []stable.Record
	for reg, env := range win {
		cur, e, err := nd.regView(reg)
		if err == nil && e != epoch || errors.Is(err, ErrDown) {
			err = ErrCrashed
		}
		if err != nil {
			settle(err)
			return out
		}
		if !cur.tag.Less(env.Tag) {
			delete(win, reg)
		} else if nd.logsAdoption(env) {
			recs = append(recs, stable.Record{Name: recWrittenPrefix + reg, Data: encodeTagged(env.Tag, env.Value)})
		}
	}
	adoptions := len(recs)
	for _, it := range batch {
		if it.pre != nil {
			recs = append(recs, it.pre.rec)
		}
	}
	if len(recs) > 0 {
		err := nd.st.StoreBatch(recs)
		settle(err)
		if err != nil {
			// Cannot acknowledge what is not durable; the rounds retransmit
			// and the whole group is retried.
			return out
		}
		nd.logGroups.Add(1)
		nd.logRecords.Add(uint64(len(recs)))
		for _, rec := range recs[:adoptions] {
			env := win[rec.Name[len(recWrittenPrefix):]]
			nd.recordLog(env.Op, causal.After(int(env.Depth)), len(rec.Data))
			if nd.tr != nil {
				nd.traceEvent("store", rec.Name+" tag="+env.Tag.String())
			}
		}
	}

	// Apply the volatile adoptions — only now, after StoreBatch returned —
	// then acknowledge every envelope of the group: the logged winners with
	// their deepened causal depth, the rest exactly as if they had been
	// delivered after the winner.
	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		nd.mu.Unlock()
		return out // crashed while logging; no acknowledgements
	}
	for reg, env := range win {
		if nd.regs[reg].tag.Less(env.Tag) {
			nd.regs[reg] = regState{tag: env.Tag, val: env.Value}
		}
	}
	nd.mu.Unlock()

	for _, it := range batch {
		if it.pre != nil {
			continue
		}
		env, depth := it.env, int(it.env.Depth)
		if w, ok := win[env.Reg]; ok && w.RPC == env.RPC && w.From == env.From && nd.logsAdoption(w) {
			depth = causal.After(depth)
		}
		out = append(out, wire.Envelope{
			Kind: wire.KindWriteAck, To: env.From, Reg: env.Reg,
			RPC: env.RPC, Op: env.Op, Depth: uint8(depth),
		})
	}
	return out
}

// logsAdoption reports whether handling env may log written/: never under
// the crash-stop baseline, nor for a read's write-back under the
// UnsafeNoReadLog ablation, which demonstrates the Theorem 2 lower bound.
// Otherwise the log-optimal algorithms log exactly when they adopt a higher
// timestamp (hence quiescent reads log nowhere), and Naive logs every W.
func (nd *Node) logsAdoption(env wire.Envelope) bool {
	return nd.kind != CrashStop && (env.Kind != wire.KindWriteBack || !nd.opts.UnsafeNoReadLog)
}

// stillServing re-checks liveness after a blocking store.
func (nd *Node) stillServing(epoch uint64) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.epoch == epoch && nd.servingLocked()
}
