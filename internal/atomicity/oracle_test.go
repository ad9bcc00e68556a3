package atomicity

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"recmem/internal/history"
)

// This file is the oracle Check is compared against: a memoized search for
// a legal sequential history over the operations as they are, values
// repeated or not, with no reads-from relation. It is exponential in
// mutually concurrent writes. Three observations keep it complete:
//
//  1. Pending reads can always be dropped: a completed read only adds
//     constraints.
//  2. A kept pending write's reply is best placed at the latest position the
//     criterion allows: a later reply only removes precedence edges. Keeping
//     or dropping it is chosen anywhere in the search, at no constraint.
//  3. A read that nothing un-dealt precedes and that returns the current
//     value goes first: it changes no state, so the search never branches
//     on reads.

// searchOp is an operation prepared for the sequential-witness search.
type searchOp struct {
	isWrite  bool
	value    string
	inv      int64
	ret      int64 // unbounded if the reply may float to the end
	optional bool  // pending write: may be dropped instead of linearized
}

// searchOps prepares a single-register history for the witness search:
// pending operations completed as the mode allows, in invocation order.
func searchOps(h history.History, mode Mode) []searchOp {
	all := h.Operations()
	ops := make([]searchOp, 0, len(all))
	for _, op := range all {
		s := searchOp{isWrite: op.Type == history.Write, value: op.Value, inv: op.Inv, ret: op.Ret}
		if op.Pending() {
			if op.Type == history.Read {
				continue // observation 1
			}
			s.optional = true
			s.ret = searchBound(h, op, mode)
		}
		ops = append(ops, s)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].inv < ops[j].inv })
	return ops
}

// searchBound is the oracle's own scan for the latest position of a pending
// write's synthesized reply (observation 2): just before the process's next
// invocation (Persistent) or next write reply (Transient), else unbounded.
func searchBound(h history.History, op history.Operation, mode Mode) int64 {
	for _, e := range h {
		if e.Seq <= op.Inv || e.Proc != op.Proc {
			continue
		}
		if (mode == Persistent && e.Kind == history.Invoke) ||
			(mode == Transient && e.Kind == history.Return && e.Op == history.Write) {
			return e.Seq - 1
		}
	}
	return unbounded
}

// sequentialWitnessExists performs the memoized search for a legal sequential
// history: a permutation of the kept operations that respects precedence
// (op1 precedes op2 iff ret(op1) < inv(op2)) and the register's sequential
// specification (every read returns the latest previously written value, or
// the initial value). Operations marked optional may instead be dropped at
// any point.
func sequentialWitnessExists(ops []searchOp, initial string) bool {
	n := len(ops)
	if n == 0 {
		return true
	}
	words := (n + 63) / 64
	mask := make([]uint64, words)
	seen := make(map[string]struct{})

	key := func(mask []uint64, value string) string {
		var b strings.Builder
		b.Grow(words*8 + len(value))
		for _, w := range mask {
			for s := 0; s < 64; s += 8 {
				b.WriteByte(byte(w >> s))
			}
		}
		b.WriteString(value)
		return b.String()
	}
	isDealt := func(i int) bool { return mask[i/64]&(1<<(i%64)) != 0 }
	set := func(i int) { mask[i/64] |= 1 << (i % 64) }
	clear := func(i int) { mask[i/64] &^= 1 << (i % 64) }

	// blocked reports whether some un-dealt op other than i completed before
	// op i was invoked, i.e. precedes i and must be dealt with first.
	blocked := func(i int) bool {
		for j := 0; j < n; j++ {
			if j == i || isDealt(j) {
				continue
			}
			if ops[j].ret < ops[i].inv {
				return true
			}
		}
		return false
	}

	var rec func(value string, remaining int) bool
	rec = func(value string, remaining int) bool {
		if remaining == 0 {
			return true
		}
		// Observation 3: an unblocked read of the current value goes first
		// without branching.
		for i := 0; i < n; i++ {
			if !isDealt(i) && !ops[i].isWrite && ops[i].value == value && !blocked(i) {
				set(i)
				ok := rec(value, remaining-1)
				clear(i)
				return ok
			}
		}
		k := key(mask, value)
		if _, ok := seen[k]; ok {
			return false
		}
		seen[k] = struct{}{}

		for i := 0; i < n; i++ {
			if isDealt(i) {
				continue
			}
			o := ops[i]
			if !blocked(i) {
				if o.isWrite {
					set(i)
					if rec(o.value, remaining-1) {
						return true
					}
					clear(i)
				} else if o.value == value {
					set(i)
					if rec(value, remaining-1) {
						return true
					}
					clear(i)
				}
			}
			if o.optional {
				// Declaring the pending write absent is always allowed and
				// imposes no constraints (even when linearizing is blocked:
				// whatever blocks it may itself be dropped later, and the
				// memoized search covers every interleaving of drops).
				set(i)
				if rec(value, remaining-1) {
					return true
				}
				clear(i)
			}
		}
		return false
	}
	return rec(initial, n)
}

// bruteWitness enumerates all permutations with keep/drop choices for
// optional operations — the ground truth for small inputs.
func bruteWitness(ops []searchOp, initial string) bool {
	n := len(ops)
	used := make([]bool, n)
	var perm func(value string, placed int) bool
	perm = func(value string, placed int) bool {
		if placed == n {
			return true
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// Precedence: every un-placed op that returned before ops[i]'s
			// invocation must already be placed.
			ok := true
			for j := 0; j < n; j++ {
				if j != i && !used[j] && ops[j].ret < ops[i].inv {
					ok = false
					break
				}
			}
			if ok {
				if ops[i].isWrite {
					used[i] = true
					if perm(ops[i].value, placed+1) {
						return true
					}
					used[i] = false
				} else if ops[i].value == value {
					used[i] = true
					if perm(value, placed+1) {
						return true
					}
					used[i] = false
				}
			}
			if ops[i].optional {
				used[i] = true
				if perm(value, placed+1) {
					return true
				}
				used[i] = false
			}
		}
		return false
	}
	return perm(initial, 0)
}

// TestSearchAgreesWithBruteForce cross-checks the memoized search against
// exhaustive enumeration on thousands of random small operation sets, values
// repeated and ⊥ written included: the oracle's own test.
func TestSearchAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := []string{"", "a", "b", "c"}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(6)
		ops := make([]searchOp, n)
		for i := range ops {
			invAt := int64(rng.Intn(10))
			retAt := invAt + int64(rng.Intn(6))
			op := searchOp{
				isWrite: rng.Intn(2) == 0,
				value:   values[rng.Intn(len(values))],
				inv:     invAt,
				ret:     retAt,
			}
			if op.isWrite && rng.Intn(4) == 0 {
				op.optional = true
				if rng.Intn(2) == 0 {
					op.ret = unbounded
				}
			}
			ops[i] = op
		}
		got := sequentialWitnessExists(ops, "")
		want := bruteWitness(ops, "")
		if got != want {
			t.Fatalf("trial %d: search=%v brute=%v for %+v", trial, got, want, ops)
		}
	}
}
