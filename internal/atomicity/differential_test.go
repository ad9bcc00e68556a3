package atomicity

import (
	"errors"
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

// TestPrunedSearchAgreesWithUnpruned is the three-way differential: on
// random crash-recovery histories, Check's cluster test, the oracle's pruned
// search and bruteWitness, the same enumeration with no pruning and no memo,
// must return one verdict in every mode, and the verdicts must nest across
// the modes.
func TestPrunedSearchAgreesWithUnpruned(t *testing.T) {
	const histories = 12000
	rng := rand.New(rand.NewSource(20))
	verdicts := map[bool]int{}
	for trial := 0; trial < histories; trial++ {
		h, legal := atomicHistory(rng, trial%2 == 1)
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced an ill-formed history: %v", trial, err)
		}
		ok := map[Mode]bool{}
		for _, mode := range atomicModes() {
			got := checkVerdict(t, h, mode)
			ok[mode] = got
			ops := searchOps(h, mode)
			search := sequentialWitnessExists(ops, history.Bottom)
			if brute := bruteWitness(ops, history.Bottom); got != search || search != brute {
				t.Fatalf("trial %d, %v: Check says %v, pruned search %v, unpruned %v\n%v",
					trial, mode, got, search, brute, h.Operations())
			}
			if legal && !got {
				t.Fatalf("trial %d, %v: history of an atomic register rejected\n%v", trial, mode, h.Operations())
			}
			verdicts[got]++
		}
		// The criteria nest: persistent ⊆ transient ⊆ linearizable.
		if ok[Persistent] && !ok[Transient] || ok[Transient] && !ok[Linearizable] {
			t.Fatalf("trial %d: criteria do not nest: %v\n%v", trial, ok, h.Operations())
		}
	}
	// Both verdicts must be well represented or the comparison is vacuous.
	if verdicts[true] < histories/2 || verdicts[false] < histories/2 {
		t.Fatalf("lopsided verdicts: %d witnessed, %d violations", verdicts[true], verdicts[false])
	}
}

// checkVerdict runs Check on a history that keeps the input contract: any
// error other than a *Violation fails the test.
func checkVerdict(t *testing.T, h history.History, mode Mode) bool {
	t.Helper()
	err := Check(h, mode)
	var v *Violation
	if err != nil && !errors.As(err, &v) {
		t.Fatalf("%v: %v", mode, err)
	}
	return err == nil
}

// smallHistory is a random well-formed history of at most seven operations
// by up to three crash-prone processes on one register, written values
// unique. A read mostly returns ⊥ or a write invoked before it returned, and
// sometimes any written value or one never written.
func smallHistory(rng *rand.Rand) history.History {
	procs := 1 + rng.Intn(3)
	scripts := make([]history.History, procs)
	n := 1 + rng.Intn(7)
	for id := uint64(1); id <= uint64(n); id++ {
		p := int32(rng.Intn(procs))
		e := history.Event{Proc: p, Kind: history.Invoke, Op: history.Read, OpID: id, Reg: "x"}
		if rng.Intn(2) == 0 {
			e.Op, e.Value = history.Write, fmt.Sprintf("w%d", id)
		}
		scripts[p] = append(scripts[p], e)
		if rng.Intn(4) == 0 {
			scripts[p] = append(scripts[p], history.Event{Proc: p, Kind: history.Crash},
				history.Event{Proc: p, Kind: history.Recover})
		} else {
			scripts[p] = append(scripts[p], history.Event{Proc: p, Kind: history.Return, Op: e.Op, OpID: id, Reg: "x"})
		}
	}
	var (
		h       history.History
		written []string // values of the writes invoked so far
	)
	for {
		var live []int
		for p := range scripts {
			if len(scripts[p]) > 0 {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			break
		}
		p := live[rng.Intn(len(live))]
		e := scripts[p][0]
		scripts[p] = scripts[p][1:]
		e.Seq = int64(len(h) + 1)
		if e.Kind == history.Invoke && e.Op == history.Write {
			written = append(written, e.Value)
		}
		h = append(h, e)
	}
	for i, e := range h {
		if e.Kind != history.Return || e.Op != history.Read {
			continue
		}
		seen := 0
		for _, f := range h[:i] {
			if f.Kind == history.Invoke && f.Op == history.Write {
				seen++
			}
		}
		switch k := rng.Intn(10); {
		case k == 0:
			h[i].Value = "ghost"
		case k == 1 && len(written) > 0:
			h[i].Value = written[rng.Intn(len(written))]
		case seen > 0 && k > 3:
			h[i].Value = written[rng.Intn(seen)]
		}
	}
	return h
}

// TestClusterTestAgreesWithBruteForce compares Check with bruteWitness on
// random small unique-value histories in every mode.
func TestClusterTestAgreesWithBruteForce(t *testing.T) {
	const histories = 100000
	rng := rand.New(rand.NewSource(36))
	verdicts := map[bool]int{}
	for trial := 0; trial < histories; trial++ {
		h := smallHistory(rng)
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced an ill-formed history: %v", trial, err)
		}
		for _, mode := range atomicModes() {
			got := checkVerdict(t, h, mode)
			if want := bruteWitness(searchOps(h, mode), history.Bottom); got != want {
				t.Fatalf("trial %d, %v: Check says %v, brute force %v\n%v", trial, mode, got, want, h)
			}
			verdicts[got]++
		}
	}
	if verdicts[true] < histories/2 || verdicts[false] < histories/2 {
		t.Fatalf("lopsided verdicts: %d witnessed, %d violations", verdicts[true], verdicts[false])
	}
}

// TestRegularAgreesWithOracle compares the Regular and Safe modes with
// regularOracle on random single-writer crash-recovery histories.
func TestRegularAgreesWithOracle(t *testing.T) {
	const histories = 20000
	rng := rand.New(rand.NewSource(42))
	verdicts := map[bool]int{}
	for trial := 0; trial < histories; trial++ {
		h := randomHistory(rng, 2+rng.Intn(2), 4+rng.Intn(16), true)
		for _, mode := range []Mode{Regular, Safe} {
			got := checkVerdict(t, h, mode)
			if want := regularOracle(h, mode == Regular); got != want {
				t.Fatalf("trial %d, %v: Check says %v, oracle %v\n%v", trial, mode, got, want, h.Operations())
			}
			verdicts[got]++
		}
	}
	if verdicts[true] < histories/2 || verdicts[false] < histories/2 {
		t.Fatalf("lopsided verdicts: %d regular, %d violations", verdicts[true], verdicts[false])
	}
}
