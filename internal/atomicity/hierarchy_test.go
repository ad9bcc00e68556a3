package atomicity

import (
	"fmt"
	"math/rand"
	"testing"

	"recmem/internal/history"
)

// randomHistory generates a random well-formed history: at every step a
// random process takes a random legal action (invoke, return, crash,
// recover). Every write writes a value of its own; a read returns ⊥, a
// ghost nobody wrote or any value written so far, so most histories violate
// most criteria — which is what exercises the implication directions.
func randomHistory(rng *rand.Rand, procs, steps int, singleWriter bool) history.History {
	type pstate int
	const (
		idle pstate = iota
		pendingRead
		pendingWrite
		down
	)
	var (
		h      history.History
		states = make([]pstate, procs)
		pend   = make([]uint64, procs)
		nextID = uint64(1)
		seq    = int64(1)
		values = []string{history.Bottom, "ghost"} // then every written value
	)
	emit := func(e history.Event) {
		e.Seq = seq
		seq++
		h = append(h, e)
	}
	for s := 0; s < steps; s++ {
		p := int32(rng.Intn(procs))
		switch states[p] {
		case idle:
			switch rng.Intn(4) {
			case 0: // crash
				emit(history.Event{Proc: p, Kind: history.Crash})
				states[p] = down
			case 1: // read
				pend[p] = nextID
				nextID++
				emit(history.Event{Proc: p, Kind: history.Invoke, Op: history.Read, OpID: pend[p], Reg: "x"})
				states[p] = pendingRead
			default: // write
				if singleWriter && p != 0 {
					continue
				}
				pend[p] = nextID
				nextID++
				values = append(values, fmt.Sprintf("v%d", pend[p]))
				emit(history.Event{Proc: p, Kind: history.Invoke, Op: history.Write, OpID: pend[p], Reg: "x",
					Value: values[len(values)-1]})
				states[p] = pendingWrite
			}
		case pendingRead:
			if rng.Intn(5) == 0 {
				emit(history.Event{Proc: p, Kind: history.Crash})
				states[p] = down
				continue
			}
			emit(history.Event{Proc: p, Kind: history.Return, Op: history.Read, OpID: pend[p], Reg: "x",
				Value: values[rng.Intn(len(values))]})
			states[p] = idle
		case pendingWrite:
			if rng.Intn(5) == 0 {
				emit(history.Event{Proc: p, Kind: history.Crash})
				states[p] = down
				continue
			}
			emit(history.Event{Proc: p, Kind: history.Return, Op: history.Write, OpID: pend[p], Reg: "x"})
			states[p] = idle
		case down:
			emit(history.Event{Proc: p, Kind: history.Recover})
			states[p] = idle
		}
	}
	return h
}

// TestCriterionHierarchy checks the paper's strength ordering on thousands
// of random histories: persistent atomicity implies transient atomicity
// implies linearizability (the three differ only in how much freedom the
// completion rule grants, in increasing order).
func TestCriterionHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var persistentOK, transientOK int
	for trial := 0; trial < 3000; trial++ {
		h := randomHistory(rng, 2+rng.Intn(2), 4+rng.Intn(10), false)
		if err := h.Validate(); err != nil {
			t.Fatalf("generator produced ill-formed history: %v", err)
		}
		p := Check(h, Persistent) == nil
		tr := Check(h, Transient) == nil
		l := Check(h, Linearizable) == nil
		if p {
			persistentOK++
		}
		if tr {
			transientOK++
		}
		if p && !tr {
			t.Fatalf("trial %d: persistent-atomic but not transient-atomic:\n%v", trial, h.Operations())
		}
		if tr && !l {
			t.Fatalf("trial %d: transient-atomic but not linearizable:\n%v", trial, h.Operations())
		}
	}
	if persistentOK == 0 || transientOK == persistentOK {
		t.Fatalf("generator not discriminating: persistent=%d transient=%d", persistentOK, transientOK)
	}
}

// TestSWHierarchy checks atomic ⊆ regular ⊆ safe on random single-writer
// histories: persistent atomicity, which bounds a crashed write by its
// writer's next invocation as regularity does, implies regularity, and so
// does linearizability on every history the generator makes here.
func TestSWHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var passed [4]int // linearizable, persistent, regular, safe
	for trial := 0; trial < 3000; trial++ {
		h := randomHistory(rng, 2+rng.Intn(2), 4+rng.Intn(10), true)
		l := Check(h, Linearizable) == nil
		p := Check(h, Persistent) == nil
		r := Check(h, Regular) == nil
		s := Check(h, Safe) == nil
		for i, ok := range []bool{l, p, r, s} {
			if ok {
				passed[i]++
			}
		}
		switch {
		case p && !r:
			t.Fatalf("trial %d: persistent-atomic but not regular:\n%v", trial, h.Operations())
		case l && !r:
			t.Fatalf("trial %d: linearizable but not regular:\n%v", trial, h.Operations())
		case r && !s:
			t.Fatalf("trial %d: regular but not safe:\n%v", trial, h.Operations())
		}
	}
	if passed[1] == 0 || passed[2] == passed[0] || passed[3] == passed[2] {
		t.Fatalf("generator not discriminating: lin=%d persistent=%d reg=%d safe=%d", passed[0], passed[1], passed[2], passed[3])
	}
}
