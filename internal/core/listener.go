package core

import (
	"errors"

	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

// listenerGatherLimit bounds how many already-delivered envelopes the
// listener folds into one handling group, and how many queued items the
// logger takes into one StoreBatch. Gathering never blocks, so it adds no
// latency; the bound keeps one reply burst or group commit from growing
// without limit under sustained load.
const listenerGatherLimit = 128

// adoptQueueLimit bounds the envelopes queued on the logger at the mesh's
// receive bound (nettcp's 4096): beyond it they are dropped — fair-lossy,
// the rounds retransmit — so a slow disk cannot grow the replica's memory
// without limit. The executions' records do not count and are never dropped.
const adoptQueueLimit = 4096

// listen is the node's message listener — the paper's dedicated listener
// thread ("every workstation … one thread that listens for and executes read
// and write commands, and one that responds to broadcasted messages").
// It never waits on the disk (docs/adr/0017): it steps the node's own
// executions with their acknowledgements, answers what the row answers
// inline, and pushes the kinds that log onto the node's logger. Everything
// already delivered is gathered into one group, whose replies leave as one
// batch frame per destination; the submissions whose executions the group
// ended complete after that.
func (nd *Node) listen() {
	defer close(nd.listenerDone)
	// Listener-owned scratch, reused across groups.
	var group, replies, scratch []wire.Envelope
	var done []completion
	for env := range nd.ep.Recv() {
		group = nd.gather(append(group[:0], env))
		replies = nd.handleGroup(group, replies[:0], &done)
		scratch = nd.sendPerDest(replies, scratch)
		fire(done)
		done = done[:0]
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

// handleGroup dispatches one gathered delivery group: acknowledgements go to
// their executions, the kinds the row answers inline are answered into out,
// and the rest, compacted in place to the front of group, are queued on the
// logger — unless the process is not serving or the queue is full. The
// serving check and the push share one nd.mu section, as Crash's drop does,
// so no envelope delivered before a crash is queued after it.
func (nd *Node) handleGroup(group, out []wire.Envelope, done *[]completion) []wire.Envelope {
	nd.routeAcks(group, done)
	logged := group[:0]
	for _, env := range group {
		if env.Kind.IsAck() {
			continue
		}
		if nd.tr != nil {
			nd.traceEvent("recv", env.String())
		}
		if nd.proto.inline(env.Kind) {
			out = nd.answer(env, out)
		} else {
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

// logItem is one entry of the logger's queue: an envelope — a W or WB, or
// Naive's SNQuery — or, when x is set, the record pre of execution x, live
// under RPC id.
type logItem struct {
	env wire.Envelope
	pre preLog
	x   *execution
	id  uint64
}

// adopter is the node's logger (docs/adr/0019), the only goroutine that
// stores: whatever the listener and the executions queued together is one
// StoreBatch. Its queue is pushed, taken and dropped under nd.mu.
type adopter struct {
	drainQueue[logItem]
	nd               *Node
	envs             int // queued envelopes, bounded by adoptQueueLimit; guarded by nd.mu
	replies, scratch []wire.Envelope
	done             []completion
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

// drop discards the queued items; their executions have ended (failExecs).
// A group already taken is a store under way and completes. Callers hold
// nd.mu.
func (a *adopter) drop() {
	a.drainQueue.drop()
	a.envs = 0
}

// drain commits the queued items in order, one StoreBatch per group of at
// most listenerGatherLimit, until the queue is empty: whatever queues behind
// a running store joins the next group — group commit with no timer. Naive's
// groups are single items, the per-step cost the straw man exists to show
// (§I-C). A group is taken with its epoch in one nd.mu section, so nothing
// taken before a crash is adopted or acknowledged after it.
func (a *adopter) drain() {
	nd, limit := a.nd, listenerGatherLimit
	if nd.proto.everyStep {
		limit = 1
	}
	for {
		nd.mu.Lock()
		batch, epoch := a.take(limit), nd.epoch
		for _, it := range batch {
			if it.x == nil {
				a.envs--
			}
		}
		nd.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		a.replies = nd.commitGroup(batch, epoch, a.replies[:0], &a.done)
		a.scratch = nd.sendPerDest(a.replies, a.scratch)
		fire(a.done)
		a.done = a.done[:0]
		clear(a.replies)
	}
}

// sendPerDest hands envs to the endpoint as this node's, one batch frame per
// destination in envs' order (transport.SendAll). A scan per destination
// needs neither a map nor a sort. group is the caller's scratch, returned for
// reuse.
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

// answer replies to a request the row answers inline from the register's
// view, loaded from its written/ record on first touch (none: ⊥). The view
// never runs ahead of that record (commitGroup), which OneRoundReads relies
// on — also while the logger holds a newer tag's store.
func (nd *Node) answer(env wire.Envelope, out []wire.Envelope) []wire.Envelope {
	cur, _, err := nd.regView(env.Reg)
	if err != nil {
		return out // down, crashed mid-load, or the record is unreadable
	}
	_, reply, _ := nd.proto.replica(cur, env)
	return append(out, reply)
}

// commitGroup stores one logger group, taken under crash generation epoch,
// with a single StoreBatch and appends its envelopes' replies to out. Each
// envelope is one replica step (replica.go), reordered as fair-lossy
// channels may: per register the highest timestamp goes first — the only
// possible adoption — and the rest are answered as if delivered after it.
// The records, adoptions and the executions' own in queue order, are one
// group commit; nothing is acknowledged unless all are durable, every stored
// record is reported to the causal meter and the trace here, the node's one
// store path, and the executions are stepped with the outcome (settleLogs).
//
// Logging happens before the volatile update and the acknowledgement, so the
// view never runs ahead of the written/ record; OneRoundReads depends on it
// (a read ack must not name a tag this process could forget).
func (nd *Node) commitGroup(batch []logItem, epoch uint64, out []wire.Envelope, done *[]completion) []wire.Envelope {
	// Each register's fate in the group: its view before and after, and the
	// item that adopts (-1: none). regView materializes the entry before the
	// store begins, so a concurrent load never inserts a record whose store
	// has not returned. A view unreadable under epoch — a crash since the
	// take, a bad record — fails the whole group before anything is stored.
	type fate struct {
		view, st regState
		win      int
	}
	regs := make(map[string]fate, len(batch))
	for i, it := range batch {
		if it.x != nil {
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
				nd.settleLogs(batch, err, done)
				return out
			}
			f = fate{view: cur, st: cur, win: -1}
		}
		if next := nd.proto.adopt(f.st, env); next.tag != f.st.tag {
			f.st, f.win = next, i
		}
		regs[env.Reg] = f
	}
	start := len(out)
	var recs []stable.Record
	var logs []preLog
	for i, it := range batch {
		if it.x != nil {
			recs, logs = append(recs, it.pre.rec), append(logs, it.pre)
			continue
		}
		f := regs[it.env.Reg]
		cur := f.st
		if i == f.win {
			cur = f.view
		}
		_, reply, rec := nd.proto.replica(cur, it.env)
		out = append(out, reply)
		if rec.Name != "" {
			recs, logs = append(recs, rec), append(logs, preLog{rec: rec, op: it.env.Op, depth: int(reply.Depth)})
		}
	}
	if len(recs) > 0 {
		if err := nd.st.StoreBatch(recs); err != nil {
			// Cannot acknowledge what is not durable; the rounds retransmit
			// and the whole group is retried.
			nd.settleLogs(batch, err, done)
			return out[:start]
		}
		nd.logGroups.Add(1)
		nd.logRecords.Add(uint64(len(recs)))
		for _, l := range logs {
			nd.recordLog(l.op, l.depth, len(l.rec.Data))
			nd.traceEvent("store", l.rec.Name)
		}
	}

	// Step the executions whose records the group stored — Fig. 4 asks only
	// that a pre-log is durable before round 2 — then apply the adoptions.
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.settleLogsLocked(batch, nil, done)
	if nd.epoch != epoch || !nd.servingLocked() {
		return out[:start] // crashed while logging; no acknowledgements
	}
	for reg, f := range regs {
		if f.win >= 0 && nd.regs[reg].tag.Less(f.st.tag) {
			nd.regs[reg] = f.st
		}
	}
	return out
}

// settleLogs steps each still live execution whose record is in batch with
// its store's outcome.
func (nd *Node) settleLogs(batch []logItem, err error, done *[]completion) {
	nd.mu.Lock()
	nd.settleLogsLocked(batch, err, done)
	nd.mu.Unlock()
}

// settleLogsLocked is settleLogs for callers holding nd.mu.
func (nd *Node) settleLogsLocked(batch []logItem, err error, done *[]completion) {
	for _, it := range batch {
		if it.x != nil && nd.execs[it.id] == it.x {
			nd.apply(it.x, it.x.logged(err), done)
		}
	}
}
