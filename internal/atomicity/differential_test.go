package atomicity

import (
	"fmt"
	"math/rand"
	"testing"

	"recmem/internal/history"
)

// atomicHistory drives a few crash-prone processes against one atomic
// register, one random step at a time: invoke, take effect, reply, crash,
// recover. A write cut off by a crash before it took effect may still take
// effect at any later step — legal or not depending on the mode and on what
// its process did meanwhile — and corrupt replaces one read's reply with
// some other value. legal reports that neither happened, so the history
// satisfies all three criteria by construction.
func atomicHistory(rng *rand.Rand, corrupt bool) (h history.History, legal bool) {
	type op struct {
		id      uint64
		typ     history.OpType
		value   string
		applied bool
	}
	type proc struct {
		crashed bool
		cur     *op
	}
	var (
		procs  = make([]proc, 2+rng.Intn(3))
		steps  = 8 + rng.Intn(26)
		reg    = history.Bottom
		values = []string{history.Bottom}
		late   []string // cut-off writes that may still take effect
		nextID uint64
	)
	legal = true
	emit := func(p int, kind history.Kind, o *op) {
		e := history.Event{Seq: int64(len(h) + 1), Proc: int32(p), Kind: kind}
		if o != nil {
			e.Op, e.OpID, e.Reg = o.typ, o.id, "x"
			// A write carries its value on the invocation, a read on the reply.
			if (kind == history.Invoke) == (o.typ == history.Write) {
				e.Value = o.value
			}
		}
		h = append(h, e)
	}
	for ; steps > 0; steps-- {
		if len(late) > 0 && rng.Intn(6) == 0 {
			k := rng.Intn(len(late))
			reg, legal = late[k], false
			late = append(late[:k], late[k+1:]...)
			continue
		}
		p := rng.Intn(len(procs))
		st := &procs[p]
		switch {
		case st.crashed:
			emit(p, history.Recover, nil)
			st.crashed = false
		case st.cur == nil:
			nextID++
			st.cur = &op{id: nextID, typ: history.Read}
			if rng.Intn(2) == 0 {
				st.cur.typ, st.cur.value = history.Write, fmt.Sprintf("v%d", nextID)
				values = append(values, st.cur.value)
			}
			emit(p, history.Invoke, st.cur)
		case rng.Intn(8) == 0:
			emit(p, history.Crash, nil)
			if st.cur.typ == history.Write && !st.cur.applied {
				late = append(late, st.cur.value)
			}
			st.cur, st.crashed = nil, true
		case !st.cur.applied:
			if st.cur.typ == history.Write {
				reg = st.cur.value
			} else {
				st.cur.value = reg
			}
			st.cur.applied = true
		default:
			emit(p, history.Return, st.cur)
			st.cur = nil
		}
	}
	if corrupt {
		var reads []int
		for i, e := range h {
			if e.Kind == history.Return && e.Op == history.Read {
				reads = append(reads, i)
			}
		}
		if len(reads) > 0 {
			e := &h[reads[rng.Intn(len(reads))]]
			if v := values[rng.Intn(len(values))]; v != e.Value {
				e.Value, legal = v, false
			}
		}
	}
	return h, legal
}

// TestPrunedSearchAgreesWithUnpruned is the differential test for the
// linearize-matching-reads-first pruning: on random crash-recovery histories
// the search must return what bruteWitness, the same enumeration with no
// pruning and no memo, returns, in every mode.
func TestPrunedSearchAgreesWithUnpruned(t *testing.T) {
	const histories = 12000
	rng := rand.New(rand.NewSource(20))
	verdicts := map[bool]int{}
	for trial := 0; trial < histories; trial++ {
		h, legal := atomicHistory(rng, trial%2 == 1)
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced an ill-formed history: %v", trial, err)
		}
		for _, mode := range allModes() {
			ops := searchOps(h, mode)
			got := sequentialWitnessExists(ops, history.Bottom)
			if want := bruteWitness(ops, history.Bottom); got != want {
				t.Fatalf("trial %d, %v: pruned search says %v, unpruned %v\n%v", trial, mode, got, want, h.Operations())
			}
			if legal && !got {
				t.Fatalf("trial %d, %v: history of an atomic register rejected\n%v", trial, mode, h.Operations())
			}
			verdicts[got]++
		}
	}
	// Both verdicts must be well represented or the comparison is vacuous.
	if verdicts[true] < histories/2 || verdicts[false] < histories/2 {
		t.Fatalf("lopsided verdicts: %d witnessed, %d violations", verdicts[true], verdicts[false])
	}
}
