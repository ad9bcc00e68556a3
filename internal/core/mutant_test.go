package core

import (
	"errors"
	"slices"
	"testing"

	"recmem/internal/atomicity"
	"recmem/internal/wire"
)

// The paper's costs are tight (Theorems 1 and 2): take away one log, or one
// ordering of a log before what depends on it, and some schedule breaks the
// criterion. Each mutant below takes one away, on the test host only
// (docs/adr/0027): a real row with a real field flipped, or a fault — a
// variation of one of the driver's own host steps. The node has neither.

// fault is a variation of one of the driver's host steps.
type fault uint16

const (
	noReplicaLog     fault = 1 << iota // a replica's W or WB adoption is not stored (Fig. 4 line 24)
	noReadLog                          // a write-back's adoption is not stored (Theorem 2)
	ackBeforeLog                       // a replica acknowledges a W or WB on receipt, before its store
	adoptBeforeStore                   // a replica's view adopts on receipt, before the store (ADR 0015)
	readUnlogged                       // a read is answered from the adoptions queued on the logger too
	noFinish                           // recovery does not finish the pending writes (Fig. 4 lines 40–47)
	noBump                             // recovery does not raise the recovery count (Fig. 5 lines 16–22)
)

func (d *driver) has(f fault) bool { return d.faults&f != 0 }

// drops reports whether the mutant leaves a replica's record for a request
// of kind k unstored.
func (d *driver) drops(k wire.Kind) bool {
	return d.has(noReplicaLog) && (k == wire.KindWrite || k == wire.KindWriteBack) ||
		d.has(noReadLog) && k == wire.KindWriteBack
}

// queued is cur with the adoptions of reg that wait on p's logger applied.
func (d *driver) queued(p *dproc, cur regState, reg string) regState {
	items := p.logq
	if p.held != nil {
		items = append([]dlog{*p.held}, items...)
	}
	for _, it := range items {
		if it.x == nil && it.env.Reg == reg {
			cur = p.proto.adopt(cur, it.env)
		}
	}
	return cur
}

// row is a shipped algorithm with the Options the node resolves into it.
type row struct {
	kind AlgorithmKind
	opts Options
}

func (r row) String() string {
	name := r.kind.String()
	if r.opts.OneRoundReads {
		name += "+one-round"
	}
	if r.opts.HardenedTags {
		name += "+hardened"
	}
	return name
}

// criterion is the criterion a row is checked under: recmem.CriterionFor's.
func criterion(kind AlgorithmKind) atomicity.Mode {
	switch kind {
	case CrashStop:
		return atomicity.Linearizable
	case Transient:
		return atomicity.Transient
	case RegularSW:
		return atomicity.Regular
	}
	return atomicity.Persistent
}

// mutant is one way to break a bound, and the schedule that shows it.
type mutant struct {
	name   string
	flip   func(*protocol) // the row's field it flips
	faults fault           // or the host steps it varies
	rows   []row           // the shipped rows it applies to
	n      int
	kill   func(*driver) []step // the recorded schedule that kills it
	// explored lists the rows on which the explorer, within tier1Bound, kills
	// it too.
	explored []AlgorithmKind
}

// mutate applies m to every process of d.
func (d *driver) mutate(m mutant) *driver {
	for _, p := range d.ps {
		if m.flip != nil {
			m.flip(&p.proto)
		}
	}
	d.faults = m.faults
	return d
}

var (
	logRows     = []row{{kind: Transient}, {kind: Persistent}, {kind: Naive}}
	durableRows = append(logRows[:3:3], row{kind: RegularSW})
	preLogRows  = []row{{kind: Persistent}, {kind: Naive}}
	oneRound    = Options{OneRoundReads: true}
	oneRoundLog = []row{{Transient, oneRound}, {Persistent, oneRound}}
)

// mutants is every mutant, with the rows it applies to and its schedule.
var mutants = []mutant{
	{name: "no-writer-pre-log", flip: func(p *protocol) { p.preLog = false }, rows: preLogRows, n: 5, kill: figure12,
		explored: []AlgorithmKind{Persistent, Naive}},
	{name: "no-replica-log", faults: noReplicaLog, rows: durableRows, n: 3, kill: lostWrite(true),
		explored: []AlgorithmKind{Transient, Persistent, Naive, RegularSW}},
	{name: "no-read-log", faults: noReadLog, rows: logRows, n: 5, kill: figure3},
	{name: "ack-before-log", faults: ackBeforeLog, rows: durableRows, n: 3, kill: lostWrite(false),
		explored: []AlgorithmKind{Transient, Persistent, Naive, RegularSW}},
	{name: "no-finish-pending-writes", faults: noFinish, rows: preLogRows, n: 5, kill: figure12,
		explored: []AlgorithmKind{Persistent}},
	{name: "no-counter-bump", faults: noBump, rows: []row{{kind: Transient}, {kind: RegularSW}}, n: 3, kill: floatTie,
		explored: []AlgorithmKind{RegularSW}},
	{name: "adopt-before-store", faults: adoptBeforeStore, rows: oneRoundLog, n: 3, kill: unloggedRead},
	{name: "one-round-read-unlogged", faults: readUnlogged, rows: oneRoundLog, n: 3, kill: unloggedRead},
}

func mutantNamed(name string) mutant {
	for _, m := range mutants {
		if m.name == name {
			return m
		}
	}
	panic("no mutant " + name)
}

// lostWrite is W(v1) completing at a majority — its round 2 reaches {1,2},
// §VI's writer's {0,1} — that then crashes and recovers, and a read that
// hears only that majority. With stored set the majority logs W(v1) before
// it acknowledges; without, the acknowledgements are delivered before either
// logs, which only a replica that acknowledges on receipt sends.
func lostWrite(stored bool) func(*driver) []step {
	return func(d *driver) []step {
		maj, reader := []int32{1, 2}, int32(1)
		if d.ps[0].proto.singleWriter {
			maj, reader = []int32{0, 1}, 2
		}
		s := d.minted(0, "x", "v1", 0, 1)
		for _, q := range maj {
			s = append(s, deliver(0, q, wire.KindWrite))
			if stored {
				s = append(s, logged(q))
			}
			s = append(s, deliver(q, 0, wire.KindWriteAck))
		}
		for _, q := range maj {
			s = append(s, crash(q))
		}
		for _, q := range maj {
			s = append(s, d.recovery(q)...)
		}
		return append(s, d.fullRead(reader, "x", maj...)...)
	}
}

// floatTie is the writer's W(v2) floating on the lowest process f, the
// writer's crash and recovery, then W(v3) completing at the other two, a
// read that hears them, and a read that hears f and one of them. Fig. 5
// line 11 mints W(v3) at sn + rec + 1, above W(v2)'s tag; without the
// recovery count it mints W(v2)'s tag again, the tie goes to the lowest
// responder, f, and the second read returns v2 after the first returned v3.
func floatTie(d *driver) []step {
	w, f, o := int32(2), int32(0), int32(1)
	if d.ps[0].proto.singleWriter {
		w, f, o = 0, 1, 2
	}
	s := d.completed(w, "x", "v1", d.all()...)
	s = append(s, d.crashDuringWrite(w, "x", "v2", f, w, o)...)
	s = append(s, d.completed(w, "x", "v3", w, o)...)
	s = append(s, d.fullRead(o, "x", w, o)...)
	return append(s, d.fullRead(o, "x", f, o)...)
}

// unloggedRead is W(v1)'s round 2 delivered to p1 and p2, whose loggers
// have not stored it, a one-round read at p1 hearing both, their crash and
// recovery, and a second one-round read at p1 hearing both again.
func unloggedRead(d *driver) []step {
	s := d.minted(0, "x", "v1", 0, 1)
	s = append(s, deliver(0, 1, wire.KindWrite), deliver(0, 2, wire.KindWrite), read(1, "x"))
	s = append(s, d.trip(1, wire.KindRead, 1, 2)...)
	s = append(s, crash(1), crash(2))
	s = append(s, d.recovery(1)...)
	s = append(s, d.recovery(2)...)
	return append(append(s, read(1, "x")), d.trip(1, wire.KindRead, 1, 2)...)
}

// TestMutantsKilled runs every mutant, on every row it applies to, through
// its recorded schedule: the history fails the row's criterion, and the
// input list replays to the same history. The unmutated row passes the same
// schedule, applied as far as its inputs apply to it. Then the explorer
// searches the mutant within tier1Bound (not under -short) and kills it on
// exactly the rows the mutant lists as explored, with an input list that
// replays to the same history.
func TestMutantsKilled(t *testing.T) {
	for _, m := range mutants {
		for _, r := range m.rows {
			t.Run(m.name+"/"+r.String(), func(t *testing.T) {
				d := replay(t, func() *driver { return newDriver(t, m.n, r.kind, r.opts).mutate(m) }, m.kill)
				var v *atomicity.Violation
				if err := atomicity.Check(d.hist, criterion(r.kind)); !errors.As(err, &v) {
					t.Fatalf("survived its schedule (%v)\ninputs: %v", err, d.inputs)
				}
				t.Logf("killed in %d inputs: %v", len(d.inputs), v)

				ctl := newDriver(t, m.n, r.kind, r.opts)
				for _, s := range m.kill(ctl) {
					ctl.apply(s)
				}
				if err := atomicity.Check(ctl.hist, criterion(r.kind)); err != nil {
					t.Fatalf("the unmutated row fails the schedule: %v\ninputs: %v", err, ctl.inputs)
				}

				if testing.Short() {
					return
				}
				e := explore(func() *driver { return newDriver(t, 3, r.kind, r.opts).mutate(m) }, criterion(r.kind), tier1Bound)
				switch want := slices.Contains(m.explored, r.kind); {
				case e.bad == nil && want:
					t.Fatalf("the explorer's %d runs missed it", e.runs)
				case e.bad == nil:
					t.Logf("the explorer's %d runs miss it", e.runs)
				case !want:
					t.Fatalf("the explorer kills it, which the table does not say: %s", e.report())
				case !e.replays():
					t.Fatalf("the explorer's killing run does not replay: %s", e.report())
				default:
					t.Logf("the explorer kills it: %s", e.report())
				}
			})
		}
	}
}
