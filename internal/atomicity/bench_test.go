package atomicity

import (
	"fmt"
	"math/rand"
	"testing"

	"recmem/internal/history"
)

// legalHistory builds a sequential linearizable history with the given
// number of operations: writers in rotation write unique values, and a
// reader reads the latest after each write.
func legalHistory(ops, writers int) history.History {
	var (
		h   history.History
		seq = int64(1)
		id  = uint64(1)
	)
	emit := func(e history.Event) {
		e.Seq = seq
		seq++
		h = append(h, e)
	}
	last := history.Bottom
	for i := 0; i < ops/2; i++ {
		w := int32(i % writers)
		val := fmt.Sprintf("v%d", i)
		wid := id
		id++
		emit(history.Event{Proc: w, Kind: history.Invoke, Op: history.Write, OpID: wid, Reg: "x", Value: val})
		emit(history.Event{Proc: w, Kind: history.Return, Op: history.Write, OpID: wid, Reg: "x"})
		last = val
		rid := id
		id++
		emit(history.Event{Proc: int32(writers), Kind: history.Invoke, Op: history.Read, OpID: rid, Reg: "x"})
		emit(history.Event{Proc: int32(writers), Kind: history.Return, Op: history.Read, OpID: rid, Reg: "x", Value: last})
	}
	return h
}

// concurrentHistory builds a history with heavy overlap: k writers invoke
// concurrently, then all return, then readers read any of the written
// values — a worst-ish case for the witness search.
func concurrentHistory(rounds, writers int) history.History {
	var (
		h   history.History
		seq = int64(1)
		id  = uint64(1)
	)
	emit := func(e history.Event) {
		e.Seq = seq
		seq++
		h = append(h, e)
	}
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < rounds; r++ {
		ids := make([]uint64, writers)
		vals := make([]string, writers)
		for w := 0; w < writers; w++ {
			ids[w] = id
			id++
			vals[w] = fmt.Sprintf("r%dw%d", r, w)
			emit(history.Event{Proc: int32(w), Kind: history.Invoke, Op: history.Write, OpID: ids[w], Reg: "x", Value: vals[w]})
		}
		for w := 0; w < writers; w++ {
			emit(history.Event{Proc: int32(w), Kind: history.Return, Op: history.Write, OpID: ids[w], Reg: "x"})
		}
		rid := id
		id++
		emit(history.Event{Proc: int32(writers), Kind: history.Invoke, Op: history.Read, OpID: rid, Reg: "x"})
		emit(history.Event{Proc: int32(writers), Kind: history.Return, Op: history.Read, OpID: rid, Reg: "x",
			Value: vals[rng.Intn(writers)]})
	}
	return h
}

// BenchmarkCheck backs the package doc's O(n log n) claim: the five-writer
// concurrent shape at 1k, 10k and 100k operations, each decade about ten
// times the one before, in the transient mode and the two per-read modes.
func BenchmarkCheck(b *testing.B) {
	for _, mode := range []Mode{Transient, Regular, Safe} {
		for _, ops := range []int{1000, 10000, 100000} {
			h := concurrentHistory(ops/6, 5) // five writes and a read per round
			b.Run(fmt.Sprintf("%v/%dk", mode, ops/1000), func(b *testing.B) {
				for b.Loop() {
					if err := Check(h, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCheckerScalesToLongHistories guards against accidental quadratic or
// exponential blowup on mostly sequential and on heavily concurrent
// histories, in every mode.
func TestCheckerScalesToLongHistories(t *testing.T) {
	for name, h := range map[string]history.History{
		"sequential": legalHistory(4000, 3),
		"concurrent": concurrentHistory(100, 4),
	} {
		for _, m := range append(atomicModes(), Regular, Safe) {
			if err := Check(h, m); err != nil {
				t.Fatalf("%s, %v: %v", name, m, err)
			}
		}
	}
}
