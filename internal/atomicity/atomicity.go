// Package atomicity decides whether a history satisfies the consistency
// criteria of the paper: linearizability of complete crash-free histories
// (Herlihy & Wing, the crash-stop baseline), persistent atomicity (§III-B)
// and transient atomicity (§III-C).
//
// All three ask whether a legal sequential history exists that is
// equivalent to some completion of H and preserves H's operation
// precedence. They differ only in where a pending write's reply may sit:
// anywhere after the end (linearizability), before its process's next
// invocation (persistent), or before its process's next write reply
// (transient, the paper's "overlapping writes" after a crash).
//
// Check answers in one O(n log n) pass per register (BenchmarkCheck),
// Gibbons & Korach's cluster test over the reads-from relation:
//
//   - Input contract: written values are unique per register and never ⊥,
//     so each completed read maps to the write of its value; a repeated
//     value is resolved by the tag witness (readsFrom), and a read still
//     left without a single write is refused with a plain error.
//   - Pending reads are dropped, and so is a pending write nobody read. A
//     pending write that was read replies at the latest position its
//     criterion allows: a later reply only removes precedence edges.
//   - A write and its readers form a cluster; ⊥'s readers form the initial
//     cluster. A legal sequential history is the clusters in some order,
//     each write followed by its reads, so H is atomic iff no read returns
//     before its write is invoked and no two clusters each hold an
//     operation preceding an operation of the other.
//   - With f a cluster's earliest reply and s its latest invocation, two
//     clusters conflict iff each one's f precedes the other's s. So the
//     forward zones [f, s] (f < s) must be disjoint, and no backward zone
//     [s, f] may lie inside one.
//
// The exhaustive witness search this package used before is the oracle of
// its tests.
package atomicity

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"recmem/internal/history"
	"recmem/internal/tag"
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
// the criterion; a *Violation means it does not. Any other error is a
// history Check cannot judge: an ill-formed one, or one breaking the input
// contract of the package doc.
func Check(h history.History, mode Mode) error {
	if err := h.Validate(); err != nil {
		return err
	}
	ops := h.Operations()
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Reg < ops[j].Reg })
	for len(ops) > 0 {
		n := 1
		for n < len(ops) && ops[n].Reg == ops[0].Reg {
			n++
		}
		if err := checkRegister(ops[:n], ops[0].Reg, mode); err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// unbounded marks a synthesized reply that may be placed at the end of any
// extension of the history.
const unbounded = int64(math.MaxInt64)

// cluster is one write and the reads that return its value, placed by two
// members: first, whose reply is earliest (at f), and last, invoked latest
// (at s). The initial cluster has no write: its virtual write of ⊥ replies
// before everything (f is -∞), and it has no first member. same links the
// clusters of earlier writes of the same value.
type cluster struct {
	write, first, last *history.Operation
	f, s               int64
	same               *cluster
}

// add makes op, whose reply sits at ret, a member of c.
func (c *cluster) add(op *history.Operation, ret int64) {
	if c.write != nil && (c.first == nil || ret < c.f) {
		c.f, c.first = ret, op
	}
	if c.last == nil || op.Inv > c.s {
		c.s, c.last = op.Inv, op
	}
}

func (c *cluster) String() string {
	if c.write == nil {
		return "the initial value ⊥"
	}
	return c.write.String()
}

// checkRegister runs the cluster test on the operations of one register, in
// invocation order.
func checkRegister(ops []history.Operation, reg string, mode Mode) error {
	violation := func(format string, args ...any) error {
		return &Violation{Mode: mode, Reg: reg, Reason: fmt.Sprintf(format, args...), Ops: ops}
	}
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("atomicity: register %q: %s; written values must be unique per register",
			reg, fmt.Sprintf(format, args...))
	}
	clusters := make([]cluster, len(ops)) // clusters[i] is write i's
	writeOf := make(map[string]*cluster, len(ops))
	for i := range ops {
		if w, c := &ops[i], &clusters[i]; w.Type == history.Write {
			if w.Value == history.Bottom {
				return refuse("%v writes ⊥", w)
			}
			c.write, c.same = w, writeOf[w.Value]
			writeOf[w.Value] = c
		}
	}

	initial := &cluster{f: math.MinInt64, s: math.MinInt64}
	for i := range ops {
		r := &ops[i]
		switch {
		case r.Type != history.Read || r.Pending():
		case r.Value == history.Bottom:
			initial.add(r, r.Ret)
		case writeOf[r.Value] == nil:
			return violation("%v returns a value never written", r)
		default:
			c := readsFrom(writeOf[r.Value], r)
			if c == nil {
				return refuse("%v matches several writes of %q and no tag witness picks one", r, r.Value)
			}
			if r.Ret < c.write.Inv {
				return violation("%v returned before %v, the write it reads from, was invoked", r, c.write)
			}
			c.add(r, r.Ret)
		}
	}

	bounds := pendingWriteBounds(ops, mode)
	zones := append(make([]*cluster, 0, len(ops)+1), initial)
	for i := range ops {
		c, w := &clusters[i], &ops[i]
		switch {
		case c.write == nil:
		case !w.Pending():
			c.add(w, w.Ret)
			zones = append(zones, c)
		case c.last != nil: // a pending write nobody read is dropped
			c.add(w, bounds[i])
			zones = append(zones, c)
		}
	}

	if a, b := conflict(zones); a != nil {
		edges := edge(b.first, a.last)
		if a.first != nil {
			edges = edge(a.first, b.last) + ", and " + edges
		}
		return violation("%v and %v must each take effect before the other: %s", a, b, edges)
	}
	return nil
}

// readsFrom returns the cluster of the write that completed read r read
// from, given the chain of clusters of the writes of r's value, or nil when
// no single write is left. A repeated value maps to the write whose tag
// witness equals r's, failing that to the only write with no witness (a
// pending write, or one whose backend reported none).
func readsFrom(chain *cluster, r *history.Operation) *cluster {
	if chain.same == nil {
		return chain
	}
	for _, t := range []tag.Tag{r.Tag, {}} {
		var found *cluster
		for c := chain; c != nil; c = c.same {
			if c.write.Tag == t {
				if found != nil {
					return nil
				}
				found = c
			}
		}
		if found != nil {
			return found
		}
	}
	return nil
}

// pendingWriteBounds returns, for each of a register's operations in
// invocation order, the latest position mode allows a pending write's reply:
// just before its process's next invocation (Persistent) or next write reply
// (Transient), else unbounded. A process is sequential, so both belong to
// its next operation that is one.
func pendingWriteBounds(ops []history.Operation, mode Mode) []int64 {
	bounds := make([]int64, len(ops))
	next := make(map[int32]int64) // per process, the position that bounds it
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i]
		bounds[i] = unbounded
		if seq, ok := next[op.Proc]; ok {
			bounds[i] = seq - 1
		}
		switch {
		case mode == Persistent:
			next[op.Proc] = op.Inv
		case mode == Transient && op.Type == history.Write && !op.Pending():
			next[op.Proc] = op.Ret
		}
	}
	return bounds
}

// conflict returns two clusters that each hold an operation preceding an
// operation of the other — one's f before the other's s, both ways — or nil
// if there are none. Sorted by f, forward zones conflict only if two
// neighbours overlap; once they are disjoint, a backward zone can lie only
// inside the last forward zone that opens before it does.
func conflict(zones []*cluster) (*cluster, *cluster) {
	fwd, bwd := make([]*cluster, 0, len(zones)), make([]*cluster, 0, len(zones))
	for _, c := range zones {
		if c.f < c.s {
			fwd = append(fwd, c)
		} else {
			bwd = append(bwd, c)
		}
	}
	sort.Slice(fwd, func(i, j int) bool { return fwd[i].f < fwd[j].f })
	for k := 1; k < len(fwd); k++ {
		if fwd[k].f < fwd[k-1].s {
			return fwd[k-1], fwd[k]
		}
	}
	for _, b := range bwd {
		k := sort.Search(len(fwd), func(k int) bool { return fwd[k].f >= b.s }) - 1
		if k >= 0 && b.f < fwd[k].s {
			return fwd[k], b
		}
	}
	return nil, nil
}

// edge renders the precedence a → b: a replied before b was invoked.
func edge(a, b *history.Operation) string {
	if a.Pending() {
		return fmt.Sprintf("%v's latest allowed reply comes before %v was invoked", a, b)
	}
	return fmt.Sprintf("%v returned before %v was invoked", a, b)
}
