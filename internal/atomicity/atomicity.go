// Package atomicity decides whether a history satisfies the consistency
// criteria of the paper: linearizability of complete crash-free histories
// (Herlihy & Wing, the crash-stop baseline), persistent atomicity (§III-B)
// and transient atomicity (§III-C).
//
// All three criteria share the same core question — does a legal sequential
// history exist that is equivalent to some completion of H and preserves H's
// operation precedence? — and differ only in how pending invocations may be
// completed:
//
//   - Linearizability: a pending invocation is absent, or its reply is
//     appended anywhere after the end of the history.
//   - Persistent atomicity: a pending invocation is absent, or its reply
//     appears before the subsequent invocation of the same process.
//   - Transient atomicity: a pending invocation is absent, or its reply
//     appears before the subsequent *write reply* of the same process
//     (allowing the paper's "overlapping writes" after a crash).
//
// Three observations make the search tractable without losing completeness:
//
//  1. Pending reads can always be dropped: keeping a completed read only adds
//     constraints, so if any completion linearizes, the one without the read
//     linearizes too.
//  2. For a kept pending write, placing the synthesized reply at the *latest*
//     position the criterion allows is optimal: moving a reply later only
//     removes precedence edges, so if any placement linearizes, the latest
//     placement does.
//  3. A read that nothing un-dealt precedes and that returns the current
//     value can be linearized at once: it changes no state, so any witness
//     can be reordered to put it first. The search never branches on reads;
//     it stays exponential only in mutually concurrent writes.
//
// The remaining choice — keep or drop each pending write — is folded into the
// sequential-witness search itself: a pending write may be "dropped" at any
// point of the search at no constraint, which explores all 2^k keep/drop
// combinations while sharing memoized states.
package atomicity

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"recmem/internal/history"
)

// Mode selects the consistency criterion to check.
type Mode int

// Supported criteria.
const (
	// Linearizable is the crash-stop criterion: atomicity of complete
	// histories, pending operations unconstrained (Herlihy & Wing).
	Linearizable Mode = iota + 1
	// Persistent is the paper's persistent atomicity: atomicity persists
	// through crashes.
	Persistent
	// Transient is the paper's transient atomicity: an unfinished write may
	// overlap the same writer's operations up to its next completed write.
	Transient
)

// String returns the criterion name.
func (m Mode) String() string {
	switch m {
	case Linearizable:
		return "linearizable"
	case Persistent:
		return "persistent-atomic"
	case Transient:
		return "transient-atomic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Violation describes why a history fails a criterion. It implements error.
type Violation struct {
	Mode   Mode
	Reg    string
	Reason string
	// Ops holds the operations of the offending register sub-history, in
	// invocation order, for diagnosis.
	Ops []history.Operation
}

// Error renders the violation with the offending operations.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s violation on register %q: %s", v.Mode, v.Reg, v.Reason)
	if len(v.Ops) > 0 && len(v.Ops) <= 40 {
		b.WriteString(" [")
		for i, op := range v.Ops {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(op.String())
		}
		b.WriteString("]")
	}
	return b.String()
}

// Check reports whether h satisfies the criterion, after validating
// well-formedness. Multi-register histories are checked per register
// (atomicity is a local property). A nil return means the history satisfies
// the criterion; otherwise the error is a *Violation (or a well-formedness
// error).
func Check(h history.History, mode Mode) error {
	if err := h.Validate(); err != nil {
		return err
	}
	for _, reg := range h.Registers() {
		if err := checkRegister(h.Restrict(reg), reg, mode); err != nil {
			return err
		}
	}
	return nil
}

// unbounded marks a synthesized reply that may be placed at the end of any
// extension of the history.
const unbounded = int64(math.MaxInt64)

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
				// Observation 1: pending reads are always absent in the
				// chosen completion.
				continue
			}
			s.optional = true
			s.ret = pendingWriteBound(h, op, mode)
		}
		ops = append(ops, s)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].inv < ops[j].inv })
	return ops
}

func checkRegister(h history.History, reg string, mode Mode) error {
	if ok := sequentialWitnessExists(searchOps(h, mode), history.Bottom); !ok {
		return &Violation{
			Mode:   mode,
			Reg:    reg,
			Reason: "no legal sequential history is equivalent to any allowed completion",
			Ops:    h.Operations(),
		}
	}
	return nil
}

// pendingWriteBound returns the latest global-clock position at which the
// criterion allows the synthesized reply of a pending write (observation 2:
// the latest allowed position is optimal). The reply must appear strictly
// before the bounding event, so the returned position is the bounding event's
// sequence number minus one.
func pendingWriteBound(h history.History, op history.Operation, mode Mode) int64 {
	switch mode {
	case Persistent:
		if next := h.NextInvocationAfter(op.Proc, op.Inv); next != 0 {
			return next - 1
		}
	case Transient:
		if next := h.NextWriteReturnAfter(op.Proc, op.Inv); next != 0 {
			return next - 1
		}
	}
	// Linearizable mode, or no bounding event exists: the reply floats to
	// the end of the (extended) history.
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
		// An unblocked read of the current value goes first without
		// branching: nothing un-dealt precedes it and it changes no state,
		// so any witness from here can be reordered to start with it. What
		// is left to branch over is the order of concurrent writes.
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
