package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"recmem/internal/atomicity"
	"recmem/internal/history"
	"recmem/internal/stable"
	"recmem/internal/wire"
)

// The driver runs n processes of one algorithm on their phase machines
// (ops.go) and replica steps (replica.go) alone: no goroutine, no network,
// no clock (docs/adr/0026). A run is a list of inputs — invoke, deliver,
// take, logged, timeout, crash, recover — applied in order, so the same list
// always gives the same history. It stands in for the node's host: messages
// wait in one in-flight list until a deliver picks one, each process's
// logger is a queue a logged input drains one item at a time, and stable
// storage is a map. A process runs one client operation at a time, one
// machine each; the node's batching is the node's business. A recovery runs
// the row's procedure — Fig. 4's pending writes, Fig. 5's counter — without
// the incarnation record, which is the node's bookkeeping.
//
// The driver also hosts the mutants (mutant_test.go): a row with one field
// flipped, or one of its own host steps varied (fault), and the explorer
// (explore_test.go) that searches its inputs (docs/adr/0027).

// action is what one input does.
type action uint8

const (
	doWrite    action = iota // invoke a write of val at p
	doRead                   // invoke a read at p
	doSafeRead               // invoke §VI's safe read at p
	doDeliver                // deliver the newest envelope of kind (and rpc, if set) in flight from → p
	doTake                   // p's logger takes the head of its queue; its store is under way
	doLogged                 // p's logger completes its store (taking the head first if it holds none)
	doTimeout                // p's executions waiting on a round retransmit
	doCrash
	doRecover
)

// step is one input of a run.
type step struct {
	do       action
	p, from  int32
	kind     wire.Kind
	rpc      uint64
	reg, val string
}

func (s step) String() string {
	switch s.do {
	case doWrite:
		return fmt.Sprintf("write(%d,%s,%s)", s.p, s.reg, s.val)
	case doRead:
		return fmt.Sprintf("read(%d,%s)", s.p, s.reg)
	case doSafeRead:
		return fmt.Sprintf("safe-read(%d,%s)", s.p, s.reg)
	case doDeliver:
		if s.rpc != 0 {
			return fmt.Sprintf("deliver(%v#%d %d->%d)", s.kind, s.rpc, s.from, s.p)
		}
		return fmt.Sprintf("deliver(%v %d->%d)", s.kind, s.from, s.p)
	}
	return fmt.Sprintf("%s(%d)", [...]string{doTake: "take", doLogged: "logged", doTimeout: "timeout", doCrash: "crash", doRecover: "recover"}[s.do], s.p)
}

func write(p int32, reg, val string) step { return step{do: doWrite, p: p, reg: reg, val: val} }
func read(p int32, reg string) step       { return step{do: doRead, p: p, reg: reg} }
func deliver(from, to int32, kind wire.Kind) step {
	return step{do: doDeliver, p: to, from: from, kind: kind}
}
func deliverEnv(env wire.Envelope) step {
	return step{do: doDeliver, p: env.To, from: env.From, kind: env.Kind, rpc: env.RPC}
}
func logged(p int32) step { return step{do: doLogged, p: p} }
func crash(p int32) step  { return step{do: doCrash, p: p} }

// driver is the goroutine-free host of n processes.
type driver struct {
	t      testing.TB
	ps     []*dproc
	net    []wire.Envelope // sent and not yet delivered, in send order
	ids    uint64
	hist   history.History
	ops    []*dop // the client operations, in invocation order
	byOp   map[uint64]*dop
	inputs []step // every input applied, in order
	faults fault  // the mutant's host variations (mutant_test.go)
	// broken lists the host's invariants a step breached: an execution of a
	// dead epoch that asked to send or log, an operation that ended twice.
	broken []string
}

// dproc is one process: its machines, its replica state and its storage.
type dproc struct {
	proc
	state nodeState
	epoch uint64
	rec   int32
	regs  map[string]regState
	disk  map[string][]byte
	execs map[uint64]*dexec
	logq  []dlog
	held  *dlog // the store the logger has under way
	// recovering counts the recovery's executions still running, and
	// recRec is the count the recovery leaves rec at.
	recovering int
	recRec     int32
	// The operations and crashes the process has had, for the explorer's
	// budget.
	writes, reads, crashes int
}

// running reports whether p runs a client operation.
func (p *dproc) running() bool {
	for _, x := range p.execs {
		if x.client != nil {
			return true
		}
	}
	return false
}

// dexec is one machine and, for a client operation, its history op.
type dexec struct {
	exec
	client *dop
}

// dop is one client operation: its history id, what it did and how it ended,
// and what it cost — its rounds and their sends, and the records any process
// stored for it.
type dop struct {
	id                  uint64
	typ                 history.OpType
	reg                 string
	ends                int // how many times the operation completed
	err                 error
	val                 string
	rounds, sends, logs int
}

// dlog is one item of a process's logger queue: an envelope, or a
// machine's record. epoch is the one it was taken under.
type dlog struct {
	env   wire.Envelope
	x     *dexec
	epoch uint64
}

func newDriver(t testing.TB, n int, kind AlgorithmKind, opts Options) *driver {
	d := &driver{t: t, byOp: map[uint64]*dop{}}
	p := newProtocol(kind, opts)
	for i := range n {
		d.ps = append(d.ps, &dproc{
			proc:  proc{proto: p, id: int32(i), n: n, quorum: (n + 2) / 2},
			state: stateUp, regs: map[string]regState{}, disk: map[string][]byte{}, execs: map[uint64]*dexec{},
		})
	}
	return d
}

// run applies the inputs in order; one that cannot apply fails the test.
func (d *driver) run(steps ...step) *driver {
	d.t.Helper()
	for _, s := range steps {
		if !d.apply(s) {
			d.t.Fatalf("input %v does not apply", s)
		}
	}
	return d
}

// apply applies one input and reports whether it could.
func (d *driver) apply(s step) bool {
	ok := d.do(s)
	if ok {
		d.inputs = append(d.inputs, s)
	}
	return ok
}

func (d *driver) do(s step) bool {
	p := d.ps[s.p]
	switch s.do {
	case doWrite, doRead, doSafeRead:
		return d.invoke(p, s)
	case doDeliver:
		for i := len(d.net) - 1; i >= 0; i-- {
			if env := d.net[i]; env.From == s.from && env.To == s.p && env.Kind == s.kind && (s.rpc == 0 || env.RPC == s.rpc) {
				d.net = slices.Delete(d.net, i, i+1)
				d.receive(p, env)
				return true
			}
		}
		return false
	case doTake:
		if p.held != nil || len(p.logq) == 0 {
			return false
		}
		d.take(p)
		return true
	case doLogged:
		if p.held == nil {
			if len(p.logq) == 0 {
				return false
			}
			d.take(p)
		}
		d.store(p)
		return true
	case doTimeout:
		for _, id := range sortedKeys(p.execs) {
			d.step(p, p.execs[id], p.execs[id].timeout())
		}
		return true
	case doCrash:
		if p.state != stateUp && p.state != stateRecovering {
			return false
		}
		p.state = stateDown
		p.epoch++
		p.crashes++
		for _, id := range sortedKeys(p.execs) {
			d.step(p, p.execs[id], p.execs[id].crash())
		}
		p.regs, p.logq, p.rec = map[string]regState{}, nil, 0
		d.event(history.Event{Proc: p.id, Kind: history.Crash})
		return true
	case doRecover:
		if p.state != stateDown || !p.proto.durable {
			return false
		}
		d.event(history.Event{Proc: p.id, Kind: history.Recover})
		p.state = stateRecovering
		if data, ok := p.disk[recRecovered]; ok && p.proto.recMint {
			p.rec, _ = decodeCounter(data)
		}
		p.recRec = p.rec
		switch {
		case d.finishes(p.id):
			for _, name := range sortedKeys(p.disk) {
				if reg, ok := strings.CutPrefix(name, recWritingPrefix); ok {
					t, v, _ := decodeTagged(p.disk[name])
					x := d.start(p, execFinish, d.next(), reg)
					x.tag, x.val = t, v
					d.begin(p, x)
				}
			}
		case d.bumps(p.id):
			p.recRec = p.rec + 1
			x := d.start(p, execRecord, 0, "")
			x.pre = preLog{rec: stable.Record{Name: recRecovered, Data: encodeCounter(p.recRec)}, op: d.next(), depth: 1}
			d.begin(p, x)
		}
		d.recovered(p)
		return true
	}
	return false
}

// finishes reports whether p's recovery finishes Fig. 4's pending writes,
// and bumps whether it logs Fig. 5's raised recovery count instead; the
// node's runRecoveryProcedure makes the same choice.
func (d *driver) finishes(p int32) bool { return d.ps[p].proto.preLog && !d.has(noFinish) }
func (d *driver) bumps(p int32) bool    { return !d.ps[p].proto.preLog && !d.has(noBump) }

// invoke starts a client operation at p.
func (d *driver) invoke(p *dproc, s step) bool {
	if p.state != stateUp {
		return false
	}
	kind, typ := execRead, history.Read
	switch s.do {
	case doWrite:
		kind, typ = execWrite, history.Write
		p.writes++
	case doRead:
		p.reads++
	case doSafeRead:
		kind = execSafe
	}
	x := d.start(p, kind, d.next(), s.reg)
	x.client = &dop{id: x.op, typ: typ, reg: s.reg}
	d.ops = append(d.ops, x.client)
	d.byOp[x.op] = x.client
	d.event(history.Event{Proc: p.id, Kind: history.Invoke, Op: typ, OpID: x.op, Reg: s.reg, Value: s.val})
	if kind == execWrite {
		x.val, x.rec = []byte(s.val), p.rec
		if p.proto.singleWriter {
			x.seen = d.view(p, s.reg).tag.Seq
		}
	}
	d.begin(p, x)
	return true
}

// start makes a machine of kind at p under a fresh RPC.
func (d *driver) start(p *dproc, kind execKind, op uint64, reg string) *dexec {
	x := &dexec{exec: exec{acks: make([]wire.Envelope, p.n)}}
	x.start(&p.proc, kind, d.next(), op, p.epoch, reg)
	return x
}

func (d *driver) begin(p *dproc, x *dexec) {
	p.execs[x.id] = x
	if x.client == nil {
		p.recovering++
	}
	d.step(p, x, x.begin())
}

// step carries out one machine output at p, as the node's apply does.
func (d *driver) step(p *dproc, x *dexec, o output) {
	if x.epoch != p.epoch && (len(o.send) > 0 || o.log) {
		d.broken = append(d.broken, fmt.Sprintf("p%d: an execution of dead epoch %d asked to send or log", p.id, x.epoch))
	}
	for _, env := range o.send {
		d.send(p, env)
	}
	if o.log {
		p.logq = append(p.logq, dlog{x: x})
	}
	c := x.client
	if c != nil && o.round {
		c.sends += o.sends
	}
	if !o.done {
		return
	}
	delete(p.execs, x.id)
	if c == nil {
		p.recovering--
		d.recovered(p)
		return
	}
	if c.ends++; c.ends > 1 {
		d.broken = append(d.broken, fmt.Sprintf("p%d: operation %d ended %d times", p.id, c.id, c.ends))
	}
	c.err, c.rounds = x.err, x.rounds
	if x.err == nil {
		if c.typ == history.Read {
			c.val = string(x.val)
		}
		d.event(history.Event{Proc: p.id, Kind: history.Return, Op: c.typ, OpID: c.id, Reg: c.reg, Value: c.val, Tag: x.tag})
	}
}

// recovered ends a recovery whose executions all ended.
func (d *driver) recovered(p *dproc) {
	if p.state == stateRecovering && p.recovering == 0 {
		p.state, p.rec = stateUp, p.recRec
	}
}

// receive handles a delivery at p: an acknowledgement steps the machine
// whose RPC it carries; a request the row answers inline is answered; every
// other request joins the logger's queue.
func (d *driver) receive(p *dproc, env wire.Envelope) {
	switch {
	case p.state == stateDown:
	case env.Kind.IsAck():
		if x := p.execs[env.RPC]; x != nil {
			d.step(p, x, x.ack(env))
		}
	case p.proto.inline(env.Kind):
		cur := d.view(p, env.Reg)
		if d.has(readUnlogged) && env.Kind == wire.KindRead {
			cur = d.queued(p, cur, env.Reg)
		}
		_, reply, _ := p.proto.replica(cur, env)
		d.send(p, reply)
	default:
		cur := d.view(p, env.Reg)
		if d.has(ackBeforeLog) {
			_, reply, _ := p.proto.replica(cur, env)
			d.send(p, reply)
		}
		if d.has(adoptBeforeStore) {
			p.regs[env.Reg] = p.proto.adopt(cur, env)
		}
		p.logq = append(p.logq, dlog{env: env})
	}
}

// take moves the head of p's logger queue into a store under way.
func (d *driver) take(p *dproc) {
	it := p.logq[0]
	p.logq = p.logq[1:]
	it.epoch = p.epoch
	p.held = &it
}

// store completes the store under way at p: a machine's record is written
// and the machine stepped; an envelope takes its replica step, whose record
// is written before the view moves and the reply leaves. A store taken
// before a crash still lands, and settles nothing.
func (d *driver) store(p *dproc) {
	it := *p.held
	p.held = nil
	if it.x != nil {
		d.persist(p, it.x.pre.op, it.x.pre.rec)
		if p.execs[it.x.id] == it.x {
			d.step(p, it.x, it.x.logged(nil))
		}
		return
	}
	if it.epoch != p.epoch {
		return
	}
	env := it.env
	cur := d.view(p, env.Reg)
	if d.has(adoptBeforeStore) {
		cur = d.stored(p, env.Reg) // the view ran ahead; the record follows the log
	}
	next, reply, rec := p.proto.replica(cur, env)
	if rec.Name != "" && !d.drops(env.Kind) {
		d.persist(p, env.Op, rec)
	}
	if d.view(p, env.Reg).tag.Less(next.tag) {
		p.regs[env.Reg] = next
	}
	if !d.has(ackBeforeLog) {
		d.send(p, reply)
	}
}

// view materializes p's view of reg from its written/ record on first touch.
func (d *driver) view(p *dproc, reg string) regState {
	rs, ok := p.regs[reg]
	if !ok {
		rs = d.stored(p, reg)
		p.regs[reg] = rs
	}
	return rs
}

// stored is p's written/ record of reg (none: ⊥).
func (d *driver) stored(p *dproc, reg string) regState {
	var rs regState
	if data, ok := p.disk[recWrittenPrefix+reg]; ok {
		rs.tag, rs.val, _ = decodeTagged(data)
	}
	return rs
}

func (d *driver) send(p *dproc, env wire.Envelope) {
	env.From = p.id
	d.net = append(d.net, env)
}

// persist writes rec to p's storage and charges it to operation op.
func (d *driver) persist(p *dproc, op uint64, rec stable.Record) {
	p.disk[rec.Name] = rec.Data
	if c := d.byOp[op]; c != nil {
		c.logs++
	}
}

func (d *driver) event(e history.Event) {
	e.Seq = int64(len(d.hist) + 1)
	d.hist = append(d.hist, e)
}

func (d *driver) next() uint64 {
	d.ids++
	return d.ids
}

// returned lists the values the completed reads returned, in order.
func (d *driver) returned() []string {
	var vals []string
	for _, e := range d.hist {
		if e.Kind == history.Return && e.Op == history.Read {
			vals = append(vals, e.Value)
		}
	}
	return vals
}

func sortedKeys[K string | uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// quiesce applies inputs until nothing is left to do: every logger store
// completes and every envelope in flight is delivered, the oldest request
// first.
func (d *driver) quiesce() {
	d.t.Helper()
	for range 10000 {
		if p := slices.IndexFunc(d.ps, func(p *dproc) bool { return p.held != nil || len(p.logq) > 0 }); p >= 0 {
			d.run(logged(int32(p)))
		} else if len(d.net) > 0 {
			d.run(deliverEnv(d.net[0]))
		} else {
			return
		}
	}
	d.t.Fatal("the run does not quiesce")
}

// trip is one round of p's running execution with peers: each peer gets
// the request, its logger stores it where the row logs that kind, and its
// acknowledgement comes back.
func (d *driver) trip(p int32, kind wire.Kind, peers ...int32) []step {
	var s []step
	for _, q := range peers {
		s = append(s, deliver(p, q, kind))
		if !d.ps[q].proto.inline(kind) {
			s = append(s, logged(q))
		}
		s = append(s, deliver(q, p, ackOf(kind)))
	}
	return s
}

// stepLog is the log a §I-C operation at p takes before its next round: a
// write's intent, the value a read writes back.
func (d *driver) stepLog(p int32) []step {
	if d.ps[p].proto.everyStep {
		return []step{logged(p)}
	}
	return nil
}

// preLog is the writer p's pre-log, where the row has one.
func (d *driver) preLog(p int32) []step {
	if d.ps[p].proto.preLog {
		return []step{logged(p)}
	}
	return nil
}

// all lists every process.
func (d *driver) all() []int32 {
	var ps []int32
	for _, p := range d.ps {
		ps = append(ps, p.id)
	}
	return ps
}

// minted is W(val) at w up to its round 2: the intent, the query round
// hearing peers (§VI's writer has none), and the pre-log.
func (d *driver) minted(w int32, reg, val string, peers ...int32) []step {
	s := append([]step{write(w, reg, val)}, d.stepLog(w)...)
	if !d.ps[w].proto.singleWriter {
		s = append(s, d.trip(w, wire.KindSNQuery, peers...)...)
	}
	return append(s, d.preLog(w)...)
}

// completed is W(val) at w whose rounds hear and reach peers.
func (d *driver) completed(w int32, reg, val string, peers ...int32) []step {
	return append(d.minted(w, reg, val, peers...), d.trip(w, wire.KindWrite, peers...)...)
}

// float is W(val) at w whose query round hears peers and whose round 2
// reaches f alone, which logs it; the write stays in flight.
func (d *driver) float(w int32, reg, val string, f int32, peers ...int32) []step {
	return append(d.minted(w, reg, val, peers...), deliver(w, f, wire.KindWrite), logged(f))
}

// fullRead is a read at p whose rounds hear peers: two, or §VI's one.
func (d *driver) fullRead(p int32, reg string, peers ...int32) []step {
	s := append([]step{read(p, reg)}, d.trip(p, wire.KindRead, peers...)...)
	if d.ps[p].proto.singleWriter {
		return s
	}
	s = append(s, d.stepLog(p)...)
	return append(s, d.trip(p, wire.KindWriteBack, peers...)...)
}

// recovery recovers p and runs its procedure where it waits on nothing but
// its own log: Fig. 5's recovery-counter record. Fig. 4's pending writes
// are the caller's to finish (finish).
func (d *driver) recovery(p int32) []step {
	s := []step{{do: doRecover, p: p}}
	if d.bumps(p) {
		s = append(s, logged(p))
	}
	return s
}

// finish is the round 2 of the one pending write p's recovery finishes, to
// everyone, where the recovery finishes it.
func (d *driver) finish(p int32) []step {
	if d.finishes(p) {
		return d.trip(p, wire.KindWrite, d.all()...)
	}
	return nil
}

// crashDuringWrite is float, then the writer's crash and its recovery,
// which finishes the write where the row does.
func (d *driver) crashDuringWrite(w int32, reg, val string, f int32, peers ...int32) []step {
	s := append(d.float(w, reg, val, f, peers...), crash(w))
	s = append(s, d.recovery(w)...)
	return append(s, d.finish(w)...)
}

// figure12 is the schedule of Figure 1, which Figure 2 replays against the
// persistent algorithm, on n = 5 with writer p0. W(v1) reaches everyone.
// W(v2) hears {0,1,2}, reaches only p3, and its writer crashes and
// recovers: Fig. 5 logs rec + 1, Fig. 4 finishes W(v2) at everyone. W(v3)
// mints and holds its round 2 while p1 reads twice, hearing {0,1,2} and then
// {1,2,3}; then W(v3) completes and p2 reads from everyone.
func figure12(d *driver) []step {
	s := d.completed(0, "x", "v1", d.all()...)
	s = append(s, d.crashDuringWrite(0, "x", "v2", 3, 0, 1, 2)...)
	s = append(s, d.minted(0, "x", "v3", 0, 1, 2)...)
	s = append(s, d.fullRead(1, "x", 0, 1, 2)...)
	s = append(s, d.fullRead(1, "x", 1, 2, 3)...)
	s = append(s, d.trip(0, wire.KindWrite, d.all()...)...)
	return append(s, d.fullRead(2, "x", d.all()...)...)
}

// figure3 is run ρ4 of Figure 3 on n = 5: W(v1) reaches everyone; W(v2)
// reaches only p3 and stays in flight; R1 at p2 hears {2,3,4}, sees v2 and
// writes it back to 1, 2, 3 and 4; p1, p2 and p4 crash and recover; R2 at
// p2 hears {1,2,4}. R2 writes back unless a one-round read returns at once.
func figure3(d *driver) []step {
	s := d.completed(0, "x", "v1", d.all()...)
	s = append(s, d.float(0, "x", "v2", 3, 0, 1, 2)...)
	s = append(s, d.fullRead(2, "x", 2, 3, 4)...)
	s = append(s, deliver(2, 1, wire.KindWriteBack), logged(1))
	s = append(s, crash(1), crash(2), crash(4))
	for _, p := range []int32{1, 2, 4} {
		s = append(s, d.recovery(p)...)
	}
	if d.ps[2].proto.oneRound {
		return append(s, append([]step{read(2, "x")}, d.trip(2, wire.KindRead, 1, 2, 4)...)...)
	}
	return append(s, d.fullRead(2, "x", 1, 2, 4)...)
}

// replay runs script on two fresh drivers from mk, requires the same history
// from both, byte for byte, and returns the first.
func replay(t *testing.T, mk func() *driver, script func(*driver) []step) *driver {
	t.Helper()
	return replayRun(t, mk, func(d *driver) { d.run(script(d)...) })
}

// replayRun is replay for a script that runs the driver itself, choosing its
// next inputs from what the run did so far.
func replayRun(t *testing.T, mk func() *driver, script func(*driver)) *driver {
	t.Helper()
	var first *driver
	var runs [2]string
	for i := range runs {
		d := mk()
		script(d)
		runs[i] = fmt.Sprintf("%+v", d.hist)
		if first == nil {
			first = d
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("one input list, two histories:\n%s\n%s", runs[0], runs[1])
	}
	return first
}

// rowDriver makes fresh n-process drivers of one row.
func rowDriver(t testing.TB, n int, kind AlgorithmKind, opts Options) func() *driver {
	return func() *driver { return newDriver(t, n, kind, opts) }
}

// TestDriverFigure1 is Figure 1's run on the transient algorithm (Fig. 5):
// R1 returns v1 and R2 returns v2 while W(v3), invoked after the writer's
// recovery, is in progress — transient-atomic, not persistent-atomic
// (property P1 of Theorem 1's proof).
func TestDriverFigure1(t *testing.T) {
	d := replay(t, rowDriver(t, 5, Transient, Options{}), figure12)
	if got := d.returned(); !slices.Equal(got, []string{"v1", "v2", "v3"}) {
		t.Fatalf("reads returned %q, want v1, v2, v3", got)
	}
	if err := atomicity.Check(d.hist, atomicity.Transient); err != nil {
		t.Fatalf("transient check: %v", err)
	}
	if err := atomicity.Check(d.hist, atomicity.Persistent); err == nil {
		t.Fatal("persistent check accepted the overlapping-write run")
	}
}

// TestDriverFigure2 is the same schedule on the persistent algorithm (Fig.
// 4): the recovery finishes W(v2), so both reads return v2 and the history
// is persistent-atomic.
func TestDriverFigure2(t *testing.T) {
	d := replay(t, rowDriver(t, 5, Persistent, Options{}), figure12)
	if got := d.returned(); !slices.Equal(got, []string{"v2", "v2", "v3"}) {
		t.Fatalf("reads returned %q, want v2, v2, v3", got)
	}
	if err := atomicity.Check(d.hist, atomicity.Persistent); err != nil {
		t.Fatalf("persistent check: %v", err)
	}
}

// TestDriverFigure3 is Theorem 2 ("no emulation can read without
// logging"): with the read's write-back unlogged (the no-read-log mutant)
// the crashes lose it and R2 returns v1, a transient-atomicity violation;
// logged, R2 returns v2.
func TestDriverFigure3(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    mutant
		want []string
	}{{"ablation", mutantNamed("no-read-log"), []string{"v2", "v1"}}, {"control", mutant{}, []string{"v2", "v2"}}} {
		t.Run(tc.name, func(t *testing.T) {
			d := replay(t, func() *driver { return newDriver(t, 5, Persistent, Options{}).mutate(tc.m) }, figure3)
			if got := d.returned(); !slices.Equal(got, tc.want) {
				t.Fatalf("reads returned %q, want %q", got, tc.want)
			}
			var v *atomicity.Violation
			if err := atomicity.Check(d.hist, atomicity.Transient); tc.m.faults != 0 && !errors.As(err, &v) || tc.m.faults == 0 && err != nil {
				t.Fatalf("transient check = %v", err)
			}
		})
	}
}

// TestDriverFigure3OneRoundReads replays run ρ4 with one-round reads. R1
// hears v1, v2, v1 — the read the paper says must cause a log — and runs
// both rounds: 2n sends, and its write-back makes p1 and p4 (at least) log.
// R2, hearing the logged v2 from the recovered {1,2,4}, and R3 at p4 from the
// same majority return it after one round: n sends, no log.
func TestDriverFigure3OneRoundReads(t *testing.T) {
	const n = 5
	for _, kind := range []AlgorithmKind{Persistent, Transient} {
		t.Run(kind.String(), func(t *testing.T) {
			d := replay(t, rowDriver(t, n, kind, Options{OneRoundReads: true}), func(d *driver) []step {
				s := append(figure3(d), read(4, "x"))
				return append(s, d.trip(4, wire.KindRead, 1, 2, 4)...)
			})
			if got := d.returned(); !slices.Equal(got, []string{"v2", "v2", "v2"}) {
				t.Fatalf("reads returned %q, want v2 three times", got)
			}
			d.quiesce() // the stragglers of R1's write-back log
			var reads []*dop
			for _, op := range d.ops {
				if op.typ == history.Read {
					reads = append(reads, op)
				}
			}
			if r1 := reads[0]; r1.rounds != 2 || r1.sends != 2*n || r1.logs < 2 {
				t.Fatalf("R1 observed a partial write yet cost %d rounds, %d sends, %d logs; want 2, %d, at least 2", r1.rounds, r1.sends, r1.logs, 2*n)
			}
			for i, r := range reads[1:] {
				if r.rounds != 1 || r.sends != n || r.logs != 0 {
					t.Fatalf("R%d heard an agreeing majority yet cost %d rounds, %d sends, %d logs; want 1, %d, 0", i+2, r.rounds, r.sends, r.logs, n)
				}
			}
			if err := atomicity.Check(d.hist, atomicity.Transient); err != nil {
				t.Fatalf("transient check: %v", err)
			}
		})
	}
}

// TestDriverCrashInEveryPhase crashes an execution in each phase it can
// wait in. Each time its operation completes exactly once, with
// ErrCrashed; nothing of the dead epoch is sent or logged after the crash,
// and the one store already under way lands; and once recovered, the
// process's next operation succeeds.
func TestDriverCrashInEveryPhase(t *testing.T) {
	type phaseCase struct {
		name  string
		kind  AlgorithmKind
		p     int32
		steps func(d *driver) []step // up to and including the crash
		next  step
		lands string // the dead epoch's store the crash found under way
	}
	w := write(0, "x", "w1")
	cases := []phaseCase{
		{"query", Persistent, 0, func(d *driver) []step {
			return []step{w, deliver(0, 1, wire.KindSNQuery), crash(0)}
		}, write(0, "x", "w2"), ""},
		{"pre-log queued", Persistent, 0, func(d *driver) []step {
			return append(append([]step{w}, d.trip(0, wire.KindSNQuery, 0, 1)...), crash(0))
		}, write(0, "x", "w2"), ""},
		{"pre-log taken", Persistent, 0, func(d *driver) []step {
			return append(append([]step{w}, d.trip(0, wire.KindSNQuery, 0, 1)...), step{do: doTake, p: 0}, crash(0))
		}, write(0, "x", "w2"), recWritingPrefix + "x"},
		{"propagate", Persistent, 0, func(d *driver) []step {
			s := append(append([]step{w}, d.trip(0, wire.KindSNQuery, 0, 1)...), logged(0))
			return append(s, deliver(0, 1, wire.KindWrite), logged(1), crash(0))
		}, write(0, "x", "w2"), ""},
		{"intent", Naive, 0, func(d *driver) []step {
			return []step{w, crash(0)}
		}, write(0, "x", "w2"), ""},
		{"safe read", RegularSW, 1, func(d *driver) []step {
			return []step{{do: doSafeRead, p: 1, reg: "x"}, deliver(1, 0, wire.KindRead), crash(1)}
		}, step{do: doSafeRead, p: 1, reg: "x"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDriver(t, 3, c.kind, Options{})
			d.run(c.steps(d)...)
			stored := len(d.ps[c.p].disk)
			for _, p := range d.all() {
				d.run(step{do: doTimeout, p: p})
			}
			d.quiesce()
			if len(d.broken) > 0 {
				t.Fatalf("after the crash: %q", d.broken)
			}
			if c.lands != "" {
				if _, ok := d.ps[c.p].disk[c.lands]; !ok {
					t.Fatalf("the store under way at the crash, %s, did not land", c.lands)
				}
				stored++
			}
			if len(d.ps[c.p].disk) != stored {
				t.Fatalf("after the crash, the dead epoch stored %d records, want %d", len(d.ps[c.p].disk), stored)
			}
			if op := d.ops[0]; op.ends != 1 || !errors.Is(op.err, ErrCrashed) {
				t.Fatalf("the crashed operation completed %d times, with %v; want once, ErrCrashed", op.ends, op.err)
			}

			d.run(step{do: doRecover, p: c.p})
			d.quiesce()
			d.run(c.next)
			d.quiesce()
			if op := d.ops[len(d.ops)-1]; op.ends != 1 || op.err != nil {
				t.Fatalf("after the recovery, the next operation completed %d times, with %v", op.ends, op.err)
			}
		})
	}
}
