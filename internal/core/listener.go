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
// nothing — and pushes the kinds that log onto the node's logger, whose
// drainer persists them (adopter.drain): the write kinds, and under Naive the
// SNQuery too. Everything already delivered (the envelopes of a batch frame
// land back to back) is gathered into one group, and the replies one handled
// group produced leave as one batch frame per destination (sendPerDest).
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
// routed as they appear, query kinds are answered individually, and the kinds
// that log — the write kinds, and Naive's SNQuery, which the straw man logs —
// compacted in place to the front of group, are queued on the logger. A
// process that is not serving drops them (a delivery to a down process), and
// so does a full logger queue (fair-lossy; the rounds retransmit). The
// replies are appended to out. The serving check and the push hold nd.mu, as
// Crash's drop does, so no envelope delivered before a crash is queued after
// it.
func (nd *Node) handleGroup(group, out []wire.Envelope) []wire.Envelope {
	logged := group[:0]
	for _, env := range group {
		if env.Kind.IsAck() {
			nd.routeAck(env)
			continue
		}
		if nd.tr != nil {
			nd.traceEvent("recv", env.String())
		}
		switch {
		case env.Kind == wire.KindRead:
			out = nd.handleRead(env, out)
		case env.Kind == wire.KindSNQuery && !nd.proto.everyStep:
			out = nd.handleSNQuery(env, out)
		case env.Kind == wire.KindSNQuery, env.Kind == wire.KindWrite, env.Kind == wire.KindWriteBack:
			logged = append(logged, env)
		}
	}
	if len(logged) == 0 {
		return out
	}
	nd.mu.Lock()
	if nd.servingLocked() {
		nd.adopter.admit(logged)
	}
	nd.mu.Unlock()
	return out
}

// logItem is one entry of the logger's queue: an envelope to log — a W or
// WB to adopt, or Naive's SNQuery — or, when pre is set, a record of one of
// the node's own executions.
type logItem struct {
	env wire.Envelope
	pre *preLog
}

// preLog is one record of the node's own on its way through the logger
// (storeLog): a causal log of an execution's chain — the writer's writing/
// pre-log, Naive's intent logs — or a recovery's record. op and depth are
// what the causal meter is told once it is stored; op 0 marks the harness's
// own bookkeeping, which is no causal log. A register's dispatcher has at most
// one in flight, so its regQueue owns it and waiting allocates nothing; a
// recovery brings its own. It completes exactly once: by the logger with its
// group's StoreBatch result, or by a crash's drop.
type preLog struct {
	rec   stable.Record
	op    uint64
	depth int
	err   error
	wait  sync.WaitGroup
}

// complete hands the execution waiting in storeLog its log's outcome.
func (w *preLog) complete(err error) {
	w.err = err
	w.wait.Done()
}

// adopter is the node's logger (docs/adr/0019): its drainer is the only
// goroutine that stores. It persists the envelopes the listener pushes and
// the records storeLog pushes — the executions' logs and the recoveries' —
// whatever was queued together as one StoreBatch. Its queue is pushed, taken
// and dropped under nd.mu; Crash, a failed recovery and Close drop it.
type adopter struct {
	drainQueue[logItem]
	nd               *Node
	envs             int // queued envelopes, bounded by adoptQueueLimit; guarded by nd.mu
	replies, scratch []wire.Envelope
}

// admit queues the envelopes of one delivery group that log, as many as
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
// Being the node's only store path, it keeps the stores in queue order and
// never overlaps two of them; whatever is queued behind a running store
// joins the next group — group commit with no timer. Naive's groups are
// single items: the straw man stores each of its steps on its own (§I-C),
// which is the cost it exists to show. Each group is taken together with
// the epoch it was taken under, in one nd.mu section, so a group held through
// a crash is dropped unacknowledged by the epoch check and nothing taken
// before a crash is adopted after the recovery.
func (a *adopter) drain() {
	nd, limit := a.nd, listenerGatherLimit
	if nd.proto.everyStep {
		limit = 1
	}
	for {
		nd.mu.Lock()
		batch, epoch := a.take(limit), nd.epoch
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
// register view materializes lazily — the first query after a restart loads
// the written/ record. Naive's queries, which the straw man logs, go to the
// logger instead (commitGroup).
func (nd *Node) handleSNQuery(env wire.Envelope, out []wire.Envelope) []wire.Envelope {
	cur, _, err := nd.regView(env.Reg)
	if err != nil {
		return out // down, crashed mid-load, or the record is unreadable
	}
	return append(out, wire.Envelope{
		Kind: wire.KindSNAck, To: env.From, Reg: env.Reg,
		RPC: env.RPC, Op: env.Op, Depth: env.Depth, Tag: cur.tag,
	})
}

// handleRead implements Fig. 4 lines 28–30: reply with the current tagged
// value, materialized from stable storage if this incarnation has not
// touched the register yet (absent record = zero state, the paper's ⊥).
// Under the logging algorithms the tag it reports is always one the written/
// record already carries (see commitGroup), which OneRoundReads relies on —
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

// commitGroup stores one logger group, taken under crash generation epoch,
// with a single StoreBatch and appends the acknowledgements of its envelopes
// to out. It implements Fig. 4 lines 21–27 for both the write's second round
// (W) and the read's write-back round (WB), as a reordering of individual
// deliveries — legal over fair-lossy channels, which reorder freely: per
// register, the envelope carrying the highest timestamp is processed first
// (it is the only possible adoption), after which the rest of the register's
// envelopes find the local timestamp at least as high and acknowledge
// without logging. Naive, the straw man, logs every step instead: each of its
// W, WB and SNQuery envelopes writes the register's resulting state, even one
// that changes nothing, and each of its acknowledgements is one log deeper.
// The group's records — adoptions and the node's own, in queue order —
// persist as one batch, one group commit, and nothing is acknowledged unless
// the whole batch is durable. Every stored record is reported here, to the
// causal meter and the trace: this is the node's one store path.
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
	// Each register's fate in the group: its state after it — the view,
	// raised to the highest timestamp a W or WB delivered — and the index of
	// the item that adopts that state (-1: none). Each regView materializes
	// the entry before the store begins, so a concurrent load never inserts
	// a record whose store has not returned. A view that cannot be read under
	// epoch — a crash since the take, or an unreadable record — fails the
	// whole group before anything is stored: no envelope is acknowledged (the
	// rounds retransmit, exactly as for a crash detected later) and no
	// pre-log of a dead incarnation is written.
	type fate struct {
		st  regState
		win int
	}
	regs := make(map[string]fate, len(batch))
	for i, it := range batch {
		if it.pre != nil {
			continue
		}
		env := it.env
		f, ok := regs[env.Reg]
		if !ok {
			cur, e, err := nd.regView(env.Reg)
			if err == nil && e != epoch || errors.Is(err, ErrDown) {
				err = ErrCrashed
			}
			if err != nil {
				settle(err)
				return out
			}
			f = fate{st: cur, win: -1}
		}
		if env.Kind != wire.KindSNQuery && f.st.tag.Less(env.Tag) {
			f = fate{st: regState{tag: env.Tag, val: env.Value}, win: i}
		}
		regs[env.Reg] = f
	}
	// logs reports whether batch[i] writes a record: every record of the
	// node's own and every Naive step; otherwise an adoption that logs. The
	// two differ for the no-logging paths (crash-stop, the UnsafeNoReadLog
	// ablation), which adopt without storing.
	logs := func(i int) bool {
		env := batch[i].env
		switch {
		case batch[i].pre != nil || env.Kind == wire.KindSNQuery:
			return true
		case !nd.logsAdoption(env):
			return false
		}
		return nd.proto.everyStep || regs[env.Reg].win == i
	}
	var recs []stable.Record
	for i, it := range batch {
		switch env := it.env; {
		case !logs(i):
		case it.pre != nil:
			recs = append(recs, it.pre.rec)
		case env.Kind == wire.KindSNQuery:
			recs = append(recs, stable.Record{Name: recSNLogPrefix + env.Reg, Data: encodeTagged(regs[env.Reg].st.tag, nil)})
		default:
			st := regs[env.Reg].st
			recs = append(recs, stable.Record{Name: recWrittenPrefix + env.Reg, Data: encodeTagged(st.tag, st.val)})
		}
	}
	if len(recs) > 0 {
		if err := nd.st.StoreBatch(recs); err != nil {
			// Cannot acknowledge what is not durable; the rounds retransmit
			// and the whole group is retried.
			settle(err)
			return out
		}
		nd.logGroups.Add(1)
		nd.logRecords.Add(uint64(len(recs)))
		// Metered before settle: a woken execution reuses its preLog.
		j := 0
		for i, it := range batch {
			if !logs(i) {
				continue
			}
			op, depth := it.env.Op, causal.After(int(it.env.Depth))
			if it.pre != nil {
				op, depth = it.pre.op, it.pre.depth
			}
			nd.recordLog(op, depth, len(recs[j].Data))
			nd.traceEvent("store", recs[j].Name)
			j++
		}
		settle(nil)
	}

	// Apply the volatile adoptions — only now, after StoreBatch returned —
	// then acknowledge every envelope of the group: the logged ones with
	// their deepened causal depth, the rest exactly as if they had been
	// delivered after the winner. A Naive SNQuery is answered with the
	// state it logged.
	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		nd.mu.Unlock()
		return out // crashed while logging; no acknowledgements
	}
	for reg, f := range regs {
		if f.win >= 0 && nd.regs[reg].tag.Less(f.st.tag) {
			nd.regs[reg] = f.st
		}
	}
	nd.mu.Unlock()

	for i, it := range batch {
		if it.pre != nil {
			continue
		}
		env, depth := it.env, int(it.env.Depth)
		if logs(i) {
			depth = causal.After(depth)
		}
		ack := wire.Envelope{
			Kind: wire.KindWriteAck, To: env.From, Reg: env.Reg,
			RPC: env.RPC, Op: env.Op, Depth: uint8(depth),
		}
		if env.Kind == wire.KindSNQuery {
			ack.Kind, ack.Tag = wire.KindSNAck, regs[env.Reg].st.tag
		}
		out = append(out, ack)
	}
	return out
}

// logsAdoption reports whether handling env may log written/: never under
// the crash-stop baseline (proto.durable), nor for a read's write-back under
// the UnsafeNoReadLog ablation (proto.readLog), which demonstrates the
// Theorem 2 lower bound. Otherwise the log-optimal algorithms log exactly
// when they adopt a higher timestamp (hence quiescent reads log nowhere), and
// Naive (proto.everyStep) logs every W and WB.
func (nd *Node) logsAdoption(env wire.Envelope) bool {
	return nd.proto.durable && (env.Kind != wire.KindWriteBack || nd.proto.readLog)
}
