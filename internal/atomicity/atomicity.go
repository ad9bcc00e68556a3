// Package atomicity decides whether a history satisfies one of five
// consistency criteria of the paper: linearizability of complete crash-free
// histories (Herlihy & Wing, the crash-stop baseline), persistent atomicity
// (§III-B), transient atomicity (§III-C), and the single-writer regularity
// and safety of the §VI registers (after Lamport).
//
// The three atomic criteria ask whether a legal sequential history exists
// that is equivalent to some completion of H and preserves H's operation
// precedence. They differ only in where a pending write's reply may sit:
// anywhere after the end (linearizability), before its process's next
// invocation (persistent), or before its process's next write reply
// (transient, the paper's "overlapping writes" after a crash). Regularity
// and safety judge each read alone, with the persistent bound
// (docs/adr/0023).
//
// Check answers in one O(n log n) pass per register (BenchmarkCheck):
//
//   - Input contract: written values are unique per register and never ⊥,
//     so each completed read maps to the write of its value; a repeated
//     value is resolved by the tag witness (readsFrom), and a read still
//     left without a single write is refused with a plain error.
//   - Pending reads are dropped, and so is a pending write nobody read. A
//     pending write that was read replies at the latest position its
//     criterion allows: a later reply only removes precedence edges.
//   - Atomic modes run Gibbons & Korach's cluster test over the reads-from
//     relation. A write and its readers form a cluster; ⊥'s readers form
//     the initial cluster. A legal sequential history is the clusters in
//     some order, each write followed by its reads, so H is atomic iff no
//     read returns before its write is invoked and no two clusters each
//     hold an operation preceding an operation of the other.
//   - With f a cluster's earliest reply and s its latest invocation, two
//     clusters conflict iff each one's f precedes the other's s. So the
//     forward zones [f, s] (f < s) must be disjoint, and no backward zone
//     [s, f] may lie inside one.
//   - Regular: a read is legal iff it did not return before its write was
//     invoked and no completed write both follows that write and precedes
//     the read (⊥: no completed write precedes the read). Safe: a read
//     that some write overlaps is unconstrained, any other is judged as
//     Regular. Each is one binary search per read over the writes.
//
// The exhaustive witness search this package used before, and the
// quadratic per-read scan of the regular checker, are the oracles of its
// tests.
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
	// Regular is the paper's single-writer regularity (§VI): a read returns
	// the last value written before it or a value written concurrently, so
	// new-old inversion is allowed.
	Regular
	// Safe is the paper's single-writer safety (§VI): a read that overlaps
	// no write is judged as Regular, any other may return anything.
	Safe
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
	case Regular:
		return "regular"
	case Safe:
		return "safe"
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
	if mode < Linearizable || mode > Safe {
		return fmt.Errorf("atomicity: unknown criterion %v", mode)
	}
	if err := h.Validate(); err != nil {
		return err
	}
	ops := h.Operations()
	if byReg := func(i, j int) bool { return ops[i].Reg < ops[j].Reg }; !sort.SliceIsSorted(ops, byReg) {
		sort.SliceStable(ops, byReg)
	}
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
// (at s). ret is the write's reply, a pending write's at its bound. The
// initial cluster has no write: its virtual write of ⊥ replies before
// everything (f and ret are -∞), and it has no first member. same links the
// clusters of earlier writes of the same value.
type cluster struct {
	write, first, last *history.Operation
	f, s, ret          int64
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

// checkRegister decides one register's operations, in invocation order:
// the per-read test of the Regular and Safe modes, or the cluster test.
func checkRegister(ops []history.Operation, reg string, mode Mode) error {
	violation := func(format string, args ...any) error {
		return &Violation{Mode: mode, Reg: reg, Reason: fmt.Sprintf(format, args...), Ops: ops}
	}
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("atomicity: register %q: %s; written values must be unique per register",
			reg, fmt.Sprintf(format, args...))
	}
	bounds := pendingWriteBounds(ops, mode)
	clusters := make([]cluster, len(ops)) // clusters[i] is write i's
	writeOf := make(map[string]*cluster, len(ops))
	for i := range ops {
		if w, c := &ops[i], &clusters[i]; w.Type == history.Write {
			if w.Value == history.Bottom {
				return refuse("%v writes ⊥", w)
			}
			c.write, c.same, c.ret = w, writeOf[w.Value], w.Ret
			if w.Pending() {
				c.ret = bounds[i]
			}
			writeOf[w.Value] = c
		}
	}
	var lw *lastWrites
	if mode == Regular || mode == Safe {
		lw = newLastWrites(clusters)
	}

	initial := &cluster{f: math.MinInt64, s: math.MinInt64, ret: math.MinInt64}
	for i := range ops {
		r := &ops[i]
		if r.Type != history.Read || r.Pending() || mode == Safe && lw.overlapped(r) {
			continue
		}
		c := initial
		if r.Value != history.Bottom {
			if writeOf[r.Value] == nil {
				return violation("%v returns a value never written", r)
			}
			if c = readsFrom(writeOf[r.Value], r); c == nil {
				return refuse("%v matches several writes of %q and no tag witness picks one", r, r.Value)
			}
			if r.Ret < c.write.Inv {
				return violation("%v returned before %v, the write it reads from, was invoked", r, c.write)
			}
		}
		if lw == nil {
			c.add(r, r.Ret)
		} else if w := lw.superseding(r, c.ret); w != nil {
			why := edge(w, r)
			if c.write != nil {
				why = edge(c.write, w) + ", and " + why
			}
			return violation("%v reads from %v, which %v overwrote: %s", r, c, w, why)
		}
	}
	if lw != nil {
		return nil
	}

	zones := append(make([]*cluster, 0, len(ops)+1), initial)
	for i := range ops {
		// A pending write nobody read is dropped.
		if c := &clusters[i]; c.write != nil && (!c.write.Pending() || c.last != nil) {
			c.add(c.write, c.ret)
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

// lastWrites answers the per-read questions of the Regular and Safe modes
// with one binary search each. done holds a register's completed writes by
// reply, and latest[k] is the one invoked last among done[:k+1]; all holds
// every write in invocation order, and longest[k] is the one replying last
// among all[:k+1], a pending write at its bound.
type lastWrites struct {
	done, latest, all, longest []*cluster
}

func newLastWrites(clusters []cluster) *lastWrites {
	lw := &lastWrites{all: make([]*cluster, 0, len(clusters)), done: make([]*cluster, 0, len(clusters))}
	for i := range clusters {
		if c := &clusters[i]; c.write != nil {
			lw.all = append(lw.all, c)
			if !c.write.Pending() {
				lw.done = append(lw.done, c)
			}
		}
	}
	sort.Slice(lw.done, func(i, j int) bool { return lw.done[i].ret < lw.done[j].ret })
	lw.latest = prefixMax(lw.done, func(c *cluster) int64 { return c.write.Inv })
	lw.longest = prefixMax(lw.all, func(c *cluster) int64 { return c.ret })
	return lw
}

// prefixMax returns, for each k, the cluster of cs[:k+1] with the largest key.
func prefixMax(cs []*cluster, key func(*cluster) int64) []*cluster {
	out := make([]*cluster, len(cs))
	for k, c := range cs {
		out[k] = c
		if k > 0 && key(out[k-1]) > key(c) {
			out[k] = out[k-1]
		}
	}
	return out
}

// superseding returns a completed write that was invoked after ret, the
// reply of the write read r reads from, and returned before r was invoked,
// or nil if there is none. A pending write never supersedes: nothing shows
// it took effect.
func (lw *lastWrites) superseding(r *history.Operation, ret int64) *history.Operation {
	k := sort.Search(len(lw.done), func(k int) bool { return lw.done[k].ret >= r.Inv })
	if k > 0 && lw.latest[k-1].write.Inv > ret {
		return lw.latest[k-1].write
	}
	return nil
}

// overlapped reports whether some write was invoked before r returned and
// replies, or may reply, after r was invoked.
func (lw *lastWrites) overlapped(r *history.Operation) bool {
	k := sort.Search(len(lw.all), func(k int) bool { return lw.all[k].write.Inv >= r.Ret })
	return k > 0 && lw.longest[k-1].ret >= r.Inv
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
// just before its process's next write reply (Transient) or next invocation
// (the other crash-recovery modes), else unbounded. A process is
// sequential, so both belong to its next operation that is one.
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
		case mode == Transient:
			if op.Type == history.Write && !op.Pending() {
				next[op.Proc] = op.Ret
			}
		case mode != Linearizable:
			next[op.Proc] = op.Inv
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
