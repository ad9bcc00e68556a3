package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"recmem/internal/atomicity"
	"recmem/internal/history"
	"recmem/internal/wire"
)

// The explorer (docs/adr/0027) searches the driver's inputs in a bounded
// space: n = 3, one register, and per process at most two writes, two reads
// and one crash and recovery. It is a stateless depth-first search — each
// prefix is replayed on a fresh driver — exhaustive up to a depth bound,
// which prunes with sleep sets the orders of commuting inputs: inputs at
// distinct processes, unless one returns an operation and the other invokes
// one, since that order is the history's real time. From every leaf a seeded
// random walk runs on. Every run then settles — the crashed recover, every
// message is delivered and every stuck round retransmits until its
// operation ends — and is judged: each operation ended exactly once, no
// execution of a dead epoch asked to send or log, and the history meets the
// row's criterion.

// bound is how far the explorer searches.
type bound struct {
	depth int   // inputs explored exhaustively
	walk  int   // inputs a seeded random walk adds beyond the depth
	seed  int64 // the first walk's seed; each walk takes the next
}

var (
	tier1Bound = bound{depth: 3, walk: 120, seed: 1}
	fullBound  = bound{depth: 6, walk: 120, seed: 1}
)

// move is an input as the search sees it: where it acts (-1: at every
// process, a timeout, whose enabling depends on the network) and which
// invocations and returns it appended. A crash or a recovery is judged at
// its own process only: no criterion orders it against another's events.
type move struct {
	s  step
	p  int32
	ev uint8
}

const (
	evInvoke uint8 = 1 << iota
	evReturn
)

// commutes reports whether a and b, both enabled, lead to the same state in
// either order, up to the order of history events no criterion reads.
func (a move) commutes(b move) bool {
	return a.p >= 0 && b.p >= 0 && a.p != b.p &&
		(a.ev&evInvoke == 0 || b.ev&evReturn == 0) && (a.ev&evReturn == 0 || b.ev&evInvoke == 0)
}

func moveOf(s step, evs history.History) move {
	m := move{s: s, p: s.p}
	if s.do == doTimeout {
		m.p = -1
	}
	for _, e := range evs {
		switch e.Kind {
		case history.Invoke:
			m.ev |= evInvoke
		case history.Return:
			m.ev |= evReturn
		}
	}
	return m
}

// explorer is one search of one row, or of one mutant of it.
type explorer struct {
	mk   func() *driver
	mode atomicity.Mode
	b    bound
	runs int     // the runs judged so far
	bad  *driver // the first run judged wrong, and why
	why  string
}

// explore searches the runs of mk's drivers within b and stops at the first
// run judged wrong.
func explore(mk func() *driver, mode atomicity.Mode, b bound) *explorer {
	e := &explorer{mk: mk, mode: mode, b: b}
	e.dfs(nil, nil)
	return e
}

// dfs searches the runs that extend prefix. asleep holds moves already
// searched from the state before prefix's last input; those that commute
// with it stay asleep here. It returns that last input's move.
func (e *explorer) dfs(prefix []step, asleep []move) move {
	d := e.mk()
	var last move
	for i, s := range prefix {
		h := len(d.hist)
		d.run(s)
		if i == len(prefix)-1 {
			last = moveOf(s, d.hist[h:])
		}
	}
	var sleep []move
	for _, u := range asleep {
		if u.commutes(last) {
			sleep = append(sleep, u)
		}
	}
	en := e.enabled(d)
	if len(prefix) == e.b.depth || len(en) == 0 {
		e.walk(d)
		return last
	}
	var done []move
	for _, s := range en {
		if slices.ContainsFunc(sleep, func(u move) bool { return u.s == s }) {
			continue
		}
		m := e.dfs(append(prefix[:len(prefix):len(prefix)], s), append(sleep[:len(sleep):len(sleep)], done...))
		if e.bad != nil {
			break
		}
		done = append(done, m)
	}
	return last
}

// enabled lists the inputs that apply to d within the space, in a fixed
// order.
func (e *explorer) enabled(d *driver) []step {
	var en []step
	crashes := 0
	for _, p := range d.ps {
		crashes += p.crashes
	}
	for _, p := range d.ps {
		idle := p.state == stateUp && !p.running()
		if idle && p.writes < 2 && (!p.proto.singleWriter || p.id == RegularWriter) {
			en = append(en, write(p.id, "x", fmt.Sprintf("%c%d", 'a'+p.id, p.writes+1)))
		}
		if idle && p.reads < 2 {
			en = append(en, read(p.id, "x"))
		}
		// A crash-stop process never recovers, so its crashes stop short
		// of the majority the model keeps up.
		canCrash := p.crashes < 1 && (p.proto.durable || crashes < p.n-p.quorum)
		if canCrash && (p.state == stateUp || p.state == stateRecovering) {
			en = append(en, crash(p.id))
		}
		if p.state == stateDown && p.proto.durable {
			en = append(en, step{do: doRecover, p: p.id})
		}
		if canCrash && p.held == nil && len(p.logq) > 0 {
			en = append(en, step{do: doTake, p: p.id}) // a store under way matters only to a crash
		}
		if p.held != nil || len(p.logq) > 0 {
			en = append(en, logged(p.id))
		}
		if d.stuck(p) {
			en = append(en, step{do: doTimeout, p: p.id})
		}
	}
	for _, env := range d.net {
		if s := deliverEnv(env); !slices.Contains(en, s) {
			en = append(en, s)
		}
	}
	return en
}

// stuck reports whether one of p's executions waits on a round that nothing
// in flight or on a logger can advance: only a retransmission can.
func (d *driver) stuck(p *dproc) bool {
	for _, x := range p.execs {
		if !x.waiting() || slices.ContainsFunc(d.net, func(env wire.Envelope) bool { return env.RPC == x.id }) {
			continue
		}
		if !slices.ContainsFunc(d.ps, func(q *dproc) bool {
			return q.held != nil && q.held.x == nil && q.held.env.RPC == x.id ||
				slices.ContainsFunc(q.logq, func(it dlog) bool { return it.x == nil && it.env.RPC == x.id })
		}) {
			return true
		}
	}
	return false
}

// walk runs d on by a seeded random choice among the enabled inputs, then
// settles and judges it. A crash and its recovery are not drawn with the
// rest, where they would come early: each process draws the step it
// crashes at and, after it, the step it recovers at.
func (e *explorer) walk(d *driver) {
	rng := rand.New(rand.NewSource(e.b.seed + int64(e.runs)))
	at := map[step]int{}
	for _, p := range d.ps {
		c := rng.Intn(e.b.walk)
		at[crash(p.id)], at[step{do: doRecover, p: p.id}] = c, c+1+rng.Intn(e.b.walk/4)
	}
	for i := range e.b.walk {
		var now, rest []step
		for _, s := range e.enabled(d) {
			if j, ok := at[s]; !ok {
				rest = append(rest, s)
			} else if j <= i {
				now = append(now, s)
			}
		}
		switch {
		case len(now) > 0:
			d.run(now[0])
		case len(rest) > 0:
			d.run(rest[rng.Intn(len(rest))])
		}
	}
	e.runs++
	d.settle()
	if why := e.judge(d); why != "" {
		e.bad, e.why = d, why
	}
}

// settle runs d to its end: the crashed recover, every store and delivery
// completes, and every execution still waiting retransmits, until none is
// left.
func (d *driver) settle() {
	d.t.Helper()
	for range 50 {
		for _, p := range d.ps {
			if p.state == stateDown && p.proto.durable {
				d.run(step{do: doRecover, p: p.id})
			}
		}
		d.quiesce()
		busy := false
		for _, p := range d.ps {
			if len(p.execs) > 0 {
				busy = true
				d.run(step{do: doTimeout, p: p.id})
			}
		}
		if !busy {
			return
		}
	}
}

// judge returns what is wrong with a settled run ("": nothing).
func (e *explorer) judge(d *driver) string {
	if len(d.broken) > 0 {
		return d.broken[0]
	}
	for _, op := range d.ops {
		if op.ends != 1 {
			return fmt.Sprintf("operation %d ended %d times", op.id, op.ends)
		}
	}
	if err := atomicity.Check(d.hist, e.mode); err != nil {
		return err.Error()
	}
	return ""
}

// replays reports whether the run judged wrong replays, from its input
// list alone, to the same history.
func (e *explorer) replays() bool {
	return fmt.Sprintf("%+v", e.mk().run(e.bad.inputs...).hist) == fmt.Sprintf("%+v", e.bad.hist)
}

// report renders the run judged wrong: why, its operations and its input
// list.
func (e *explorer) report() string {
	var ops []string
	for _, op := range e.bad.hist.Operations() {
		ops = append(ops, op.String())
	}
	return fmt.Sprintf("after %d runs: %s\noperations: %s\n%d inputs: %v",
		e.runs, e.why, strings.Join(ops, " "), len(e.bad.inputs), e.bad.inputs)
}

// shippedRows is every shipped row, with and without one-round reads where
// the row takes them.
var shippedRows = []row{
	{kind: CrashStop}, {kind: Transient}, {kind: Persistent}, {kind: Naive}, {kind: RegularSW},
	{CrashStop, oneRound}, {Transient, oneRound}, {Persistent, oneRound},
}

// TestExploreShippedRows: every shipped row survives the bounded space under
// its own criterion.
func TestExploreShippedRows(t *testing.T) {
	if testing.Short() {
		t.Skip("the mutant kills stand for the explorer under -short")
	}
	for _, r := range shippedRows {
		t.Run(r.String(), func(t *testing.T) {
			e := explore(rowDriver(t, 3, r.kind, r.opts), criterion(r.kind), tier1Bound)
			if e.bad != nil {
				t.Fatal(e.report())
			}
			t.Logf("%d runs", e.runs)
		})
	}
}

// BenchmarkExploreBoundedSpace searches every shipped row to the full bound
// and fails on any run judged wrong:
//
//	go test -run '^$' -bench ExploreBoundedSpace -benchtime 1x ./internal/core/
func BenchmarkExploreBoundedSpace(b *testing.B) {
	for range b.N {
		runs := 0
		for _, r := range shippedRows {
			e := explore(rowDriver(b, 3, r.kind, r.opts), criterion(r.kind), fullBound)
			if e.bad != nil {
				b.Fatalf("%v: %s", r, e.report())
			}
			runs += e.runs
		}
		b.ReportMetric(float64(runs), "runs")
	}
}
