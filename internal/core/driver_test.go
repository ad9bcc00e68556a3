package core

import (
	"errors"
	"fmt"
	"math/rand"
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
// logged, timeout, crash, recover — applied in order, so the same list
// always gives the same history. It stands in for the node's host: messages
// wait in one in-flight list until a deliver picks one, each process's
// logger is a queue a logged input drains one item at a time, and stable
// storage is a map. A process runs one client operation at a time, one
// machine each; the node's batching is the node's business. A recovery runs
// the row's procedure — Fig. 4's pending writes, Fig. 5's counter — without
// the incarnation record, which is the node's bookkeeping.

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
	ops    []*dop   // the client operations, in invocation order
	inputs []step   // every input applied, in order
	trail  []string // every send and store, stamped with its process's epoch
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
	// recRec is the count its Fig. 5 record raises rec to.
	recovering int
	recRec     int32
}

// dexec is one machine and, for a client operation, its history op.
type dexec struct {
	exec
	client *dop
}

// dop is one client operation: its history id, what it did and how it ended.
type dop struct {
	id     uint64
	typ    history.OpType
	reg    string
	ends   int // how many times the operation completed
	err    error
	val    string
	rounds int
}

// dlog is one item of a process's logger queue: an envelope, or a
// machine's record. epoch is the one it was taken under.
type dlog struct {
	env   wire.Envelope
	x     *dexec
	epoch uint64
}

func newDriver(t testing.TB, n int, kind AlgorithmKind, opts Options) *driver {
	d := &driver{t: t}
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
		if data, ok := p.disk[recRecovered]; ok {
			p.rec, _ = decodeCounter(data)
		}
		if p.proto.preLog {
			for _, name := range sortedKeys(p.disk) {
				if reg, ok := strings.CutPrefix(name, recWritingPrefix); ok {
					t, v, _ := decodeTagged(p.disk[name])
					x := d.start(p, execFinish, d.next(), reg)
					x.tag, x.val = t, v
					d.begin(p, x)
				}
			}
		} else {
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

// invoke starts a client operation at p.
func (d *driver) invoke(p *dproc, s step) bool {
	if p.state != stateUp {
		return false
	}
	kind, typ := execRead, history.Read
	switch s.do {
	case doWrite:
		kind, typ = execWrite, history.Write
	case doSafeRead:
		kind = execSafe
	}
	x := d.start(p, kind, d.next(), s.reg)
	x.client = &dop{id: x.op, typ: typ, reg: s.reg}
	d.ops = append(d.ops, x.client)
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
	for _, env := range o.send {
		d.send(p, env)
	}
	if o.log {
		p.logq = append(p.logq, dlog{x: x})
	}
	if !o.done {
		return
	}
	delete(p.execs, x.id)
	if c := x.client; c != nil {
		c.ends++
		c.err, c.rounds = x.err, x.rounds
		if x.err == nil {
			if c.typ == history.Read {
				c.val = string(x.val)
			}
			d.event(history.Event{Proc: p.id, Kind: history.Return, Op: c.typ, OpID: c.id, Reg: c.reg, Value: c.val, Tag: x.tag})
		}
		return
	}
	p.recovering--
	d.recovered(p)
}

// recovered ends a recovery whose executions all ended.
func (d *driver) recovered(p *dproc) {
	if p.state == stateRecovering && p.recovering == 0 {
		p.state = stateUp
		if p.proto.recMint {
			p.rec = p.recRec
		}
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
		_, reply, _ := p.proto.replica(d.view(p, env.Reg), env)
		d.send(p, reply)
	default:
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
		d.persist(p, it.epoch, it.x.pre.rec.Name, it.x.pre.rec.Data)
		if p.execs[it.x.id] == it.x {
			d.step(p, it.x, it.x.logged(nil))
		}
		return
	}
	if it.epoch != p.epoch {
		return
	}
	cur := d.view(p, it.env.Reg)
	next, reply, rec := p.proto.replica(cur, it.env)
	if rec.Name != "" {
		d.persist(p, it.epoch, rec.Name, rec.Data)
	}
	if cur.tag.Less(next.tag) {
		p.regs[it.env.Reg] = next
	}
	d.send(p, reply)
}

// view materializes p's view of reg from its written/ record on first touch.
func (d *driver) view(p *dproc, reg string) regState {
	rs, ok := p.regs[reg]
	if !ok {
		if data, ok := p.disk[recWrittenPrefix+reg]; ok {
			rs.tag, rs.val, _ = decodeTagged(data)
		}
		p.regs[reg] = rs
	}
	return rs
}

func (d *driver) send(p *dproc, env wire.Envelope) {
	env.From = p.id
	d.net = append(d.net, env)
	d.trail = append(d.trail, fmt.Sprintf("%d@%d send %v", p.id, p.epoch, env))
}

func (d *driver) persist(p *dproc, epoch uint64, name string, data []byte) {
	p.disk[name] = data
	d.trail = append(d.trail, fmt.Sprintf("%d@%d store %s", p.id, epoch, name))
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

// fullWrite is W(val) at w reaching everyone.
func (d *driver) fullWrite(w int32, reg, val string) []step {
	s := append([]step{write(w, reg, val)}, d.trip(w, wire.KindSNQuery, d.all()...)...)
	s = append(s, d.preLog(w)...)
	return append(s, d.trip(w, wire.KindWrite, d.all()...)...)
}

// fullRead is a two-round read at p whose rounds hear peers.
func (d *driver) fullRead(p int32, reg string, peers ...int32) []step {
	s := append([]step{read(p, reg)}, d.trip(p, wire.KindRead, peers...)...)
	return append(s, d.trip(p, wire.KindWriteBack, peers...)...)
}

// recovery recovers p and runs its procedure where it waits on nothing but
// its own log: Fig. 5's recovery-counter record.
func (d *driver) recovery(p int32) []step {
	s := []step{{do: doRecover, p: p}}
	if d.ps[p].proto.recMint {
		s = append(s, logged(p))
	}
	return s
}

// figure12 is the schedule of Figure 1, which Figure 2 replays against the
// persistent algorithm, on n = 5 with writer p0. W(v1) reaches everyone.
// W(v2) hears {0,1,2}, reaches only p3, and its writer crashes and
// recovers: Fig. 5 logs rec + 1, Fig. 4 finishes W(v2) at everyone. W(v3)
// mints and holds its round 2 while p1 reads twice, hearing {0,1,2} and then
// {1,2,3}; then W(v3) completes and p2 reads from everyone.
func figure12(d *driver) []step {
	s := d.fullWrite(0, "x", "v1")
	s = append(s, write(0, "x", "v2"))
	s = append(s, d.trip(0, wire.KindSNQuery, 0, 1, 2)...)
	s = append(s, d.preLog(0)...)
	s = append(s, deliver(0, 3, wire.KindWrite), logged(3), crash(0))
	s = append(s, d.recovery(0)...)
	if d.ps[0].proto.preLog {
		s = append(s, d.trip(0, wire.KindWrite, d.all()...)...)
	}
	s = append(s, write(0, "x", "v3"))
	s = append(s, d.trip(0, wire.KindSNQuery, 0, 1, 2)...)
	s = append(s, d.preLog(0)...)
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
	s := d.fullWrite(0, "x", "v1")
	s = append(s, write(0, "x", "v2"))
	s = append(s, d.trip(0, wire.KindSNQuery, 0, 1, 2)...)
	s = append(s, d.preLog(0)...)
	s = append(s, deliver(0, 3, wire.KindWrite), logged(3))
	s = append(s, d.fullRead(2, "x", 2, 3, 4)...)
	s = append(s, deliver(2, 1, wire.KindWriteBack), logged(1))
	s = append(s, crash(1), crash(2), crash(4))
	for _, p := range []int32{1, 2, 4} {
		s = append(s, d.recovery(p)...)
	}
	s = append(s, read(2, "x"))
	s = append(s, d.trip(2, wire.KindRead, 1, 2, 4)...)
	if !d.ps[2].proto.oneRound {
		s = append(s, d.trip(2, wire.KindWriteBack, 1, 2, 4)...)
	}
	return s
}

// replay runs script on two fresh drivers, requires the same history from
// both, byte for byte, and returns the first.
func replay(t *testing.T, kind AlgorithmKind, opts Options, script func(*driver) []step) *driver {
	t.Helper()
	var first *driver
	var runs [2]string
	for i := range runs {
		d := newDriver(t, 5, kind, opts)
		d.run(script(d)...)
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

// TestDriverFigure1 is Figure 1's run on the transient algorithm (Fig. 5):
// R1 returns v1 and R2 returns v2 while W(v3), invoked after the writer's
// recovery, is in progress — transient-atomic, not persistent-atomic
// (property P1 of Theorem 1's proof).
func TestDriverFigure1(t *testing.T) {
	d := replay(t, Transient, Options{}, figure12)
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
	d := replay(t, Persistent, Options{}, figure12)
	if got := d.returned(); !slices.Equal(got, []string{"v2", "v2", "v3"}) {
		t.Fatalf("reads returned %q, want v2, v2, v3", got)
	}
	if err := atomicity.Check(d.hist, atomicity.Persistent); err != nil {
		t.Fatalf("persistent check: %v", err)
	}
}

// TestDriverFigure3 is Theorem 2 ("no emulation can read without
// logging"): with the read's write-back unlogged (Options.UnsafeNoReadLog)
// the crashes lose it and R2 returns v1, a transient-atomicity violation;
// logged, R2 returns v2.
func TestDriverFigure3(t *testing.T) {
	for _, unsafe := range []bool{true, false} {
		d := replay(t, Persistent, Options{UnsafeNoReadLog: unsafe}, figure3)
		want := []string{"v2", "v2"}
		if unsafe {
			want = []string{"v2", "v1"}
		}
		if got := d.returned(); !slices.Equal(got, want) {
			t.Fatalf("UnsafeNoReadLog=%v: reads returned %q, want %q", unsafe, got, want)
		}
		var v *atomicity.Violation
		if err := atomicity.Check(d.hist, atomicity.Transient); unsafe && !errors.As(err, &v) || !unsafe && err != nil {
			t.Fatalf("UnsafeNoReadLog=%v: transient check = %v", unsafe, err)
		}
	}
}

// TestDriverFigure3OneRoundReads replays run ρ4 with one-round reads: R1
// hears v1, v2, v1 and runs both rounds, and R2, hearing the logged v2 from
// the recovered {1,2,4}, returns it after one.
func TestDriverFigure3OneRoundReads(t *testing.T) {
	for _, kind := range []AlgorithmKind{Persistent, Transient} {
		d := replay(t, kind, Options{OneRoundReads: true}, figure3)
		var rounds []int
		for _, op := range d.ops {
			if op.typ == history.Read {
				rounds = append(rounds, op.rounds)
			}
		}
		if got := d.returned(); !slices.Equal(got, []string{"v2", "v2"}) || !slices.Equal(rounds, []int{2, 1}) {
			t.Fatalf("%v: reads returned %q in %v rounds, want v2, v2 in 2, 1", kind, got, rounds)
		}
		if err := atomicity.Check(d.hist, atomicity.Transient); err != nil {
			t.Fatalf("%v: transient check: %v", kind, err)
		}
	}
}

// TestDriverCrashInEveryPhase crashes an execution in each phase it can
// wait in. Each time its operation completes exactly once, with
// ErrCrashed; nothing of the dead epoch is sent after the crash, and nothing
// is stored but the one store already under way; and once recovered, the
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
			dead, mark := fmt.Sprintf("%d@%d ", c.p, d.ps[c.p].epoch-1), len(d.trail)
			for _, p := range d.all() {
				d.run(step{do: doTimeout, p: p})
			}
			d.quiesce()
			var after []string
			for _, e := range d.trail[mark:] {
				if strings.HasPrefix(e, dead) && e != dead+"store "+c.lands {
					after = append(after, e)
				}
			}
			if len(after) > 0 {
				t.Fatalf("after the crash, the dead epoch did %q", after)
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

// TestDriverSeededReplay is the driver's step mode: a seeded choice of the
// next input among those that apply — deliveries in any order, stores,
// retransmissions, invocations, crashes and recoveries — recorded as the run
// goes, and replayed on a fresh driver to the same history, byte for byte.
// Every history is persistent-atomic.
func TestDriverSeededReplay(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := newDriver(t, 3, Persistent, Options{})
		rng := rand.New(rand.NewSource(seed))
		writes := 0
		for range 300 {
			d.apply(d.pick(rng, &writes))
		}
		d.quiesce()
		again := newDriver(t, 3, Persistent, Options{}).run(d.inputs...)
		if a, b := fmt.Sprintf("%+v", d.hist), fmt.Sprintf("%+v", again.hist); a != b {
			t.Fatalf("seed %d: the recorded inputs replay to another history:\n%s\n%s", seed, a, b)
		}
		if err := atomicity.Check(d.hist, atomicity.Persistent); err != nil {
			t.Fatalf("seed %d: %v\ninputs: %v", seed, err, d.inputs)
		}
	}
}

// pick draws the next input: mostly a delivery or a store, now and then an
// invocation at an idle process (values are unique), a retransmission, a
// crash, or a recovery.
func (d *driver) pick(rng *rand.Rand, writes *int) step {
	p := int32(rng.Intn(len(d.ps)))
	switch r := rng.Intn(100); {
	case r < 55 && len(d.net) > 0:
		return deliverEnv(d.net[rng.Intn(len(d.net))])
	case r < 80 && (d.ps[p].held != nil || len(d.ps[p].logq) > 0):
		return logged(p)
	case r < 83:
		return step{do: doTimeout, p: p}
	case r < 84:
		return crash(p)
	case r < 90:
		return step{do: doRecover, p: p}
	}
	for _, x := range d.ps[p].execs {
		if x.client != nil {
			return step{do: doTimeout, p: p} // one operation at a time
		}
	}
	if rng.Intn(2) == 0 {
		*writes++
		return write(p, "x", fmt.Sprintf("v%d", *writes))
	}
	return read(p, "x")
}
