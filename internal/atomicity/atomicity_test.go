package atomicity

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"recmem/internal/history"
	"recmem/internal/tag"
)

// hb (history builder) assigns sequence numbers 1..n to the given events.
func hb(events ...history.Event) history.History {
	h := make(history.History, len(events))
	for i, e := range events {
		e.Seq = int64(i + 1)
		h[i] = e
	}
	return h
}

func inv(p int32, op history.OpType, id uint64, v string) history.Event {
	return history.Event{Proc: p, Kind: history.Invoke, Op: op, OpID: id, Reg: "x", Value: v}
}

func ret(p int32, op history.OpType, id uint64, v string) history.Event {
	return history.Event{Proc: p, Kind: history.Return, Op: op, OpID: id, Reg: "x", Value: v}
}

func crash(p int32) history.Event    { return history.Event{Proc: p, Kind: history.Crash} }
func recover1(p int32) history.Event { return history.Event{Proc: p, Kind: history.Recover} }

func allModes() []Mode { return []Mode{Linearizable, Persistent, Transient} }

func TestSequentialHistoryLegal(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(2, history.Read, 2, ""), ret(2, history.Read, 2, "a"),
		inv(1, history.Write, 3, "b"), ret(1, history.Write, 3, ""),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "b"),
	)
	for _, m := range allModes() {
		if err := Check(h, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestReadInitialValue(t *testing.T) {
	h := hb(
		inv(2, history.Read, 1, ""), ret(2, history.Read, 1, history.Bottom),
		inv(1, history.Write, 2, "a"), ret(1, history.Write, 2, ""),
	)
	for _, m := range allModes() {
		if err := Check(h, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestStaleReadViolation(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(2, history.Read, 2, ""), ret(2, history.Read, 2, history.Bottom),
	)
	for _, m := range allModes() {
		err := Check(h, m)
		var v *Violation
		if !errors.As(err, &v) {
			t.Fatalf("%v: expected violation, got %v", m, err)
		}
		if v.Mode != m || v.Reg != "x" {
			t.Fatalf("%v: violation metadata wrong: %+v", m, v)
		}
	}
}

func TestReadOfNeverWrittenValue(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(2, history.Read, 2, ""), ret(2, history.Read, 2, "ghost"),
	)
	for _, m := range allModes() {
		if err := Check(h, m); err == nil {
			t.Fatalf("%v: accepted read of never-written value", m)
		}
	}
}

func TestNewOldInversionViolation(t *testing.T) {
	// Complete writes a then b; then two sequential reads observe b then a.
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"), ret(1, history.Write, 2, ""),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "a"),
	)
	for _, m := range allModes() {
		if err := Check(h, m); err == nil {
			t.Fatalf("%v: accepted new-old inversion", m)
		}
	}
}

func TestConcurrentReadsMayDisagreeWithPendingWrite(t *testing.T) {
	// W(b) is pending (writer crashed); one read sees it, a concurrent read
	// does not. Legal in every mode: the pending write linearizes between
	// the reads... but since the reads overlap each other, either order.
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"),
		crash(1),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
		inv(3, history.Read, 4, ""), ret(3, history.Read, 4, "a"),
	)
	// Reads are sequential (p2's completes before p3's starts): read b then
	// a. The pending write must linearize before p2's read, after which a is
	// stale: violation in every mode.
	for _, m := range allModes() {
		if err := Check(h, m); err == nil {
			t.Fatalf("%v: accepted stale read after observed pending write", m)
		}
	}
}

func TestPendingWriteMayBeAbsent(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"),
		crash(1),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "a"),
	)
	for _, m := range allModes() {
		if err := Check(h, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestPendingWriteMayTakeEffect(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"),
		crash(1),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
	)
	for _, m := range allModes() {
		if err := Check(h, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

// TestFigure1Distinguisher is the paper's Figure 1 scenario: W(v1) completes,
// W(v2) crashes mid-write, the writer recovers and runs W(v3); two sequential
// reads concurrent with W(v3) return v1 then v2. Transient atomicity allows
// it (the unfinished W(v2) overlaps W(v3) and linearizes between the reads —
// the paper's sequential witness W(v1), R(v1), W(v2), R(v2), W(v3));
// persistent atomicity forbids it (W(v2) must take effect before W(v3) is
// invoked, or never).
func TestFigure1Distinguisher(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "v2"),
		crash(1),
		recover1(1),
		inv(1, history.Write, 3, "v3"),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "v1"),
		inv(2, history.Read, 5, ""), ret(2, history.Read, 5, "v2"),
		ret(1, history.Write, 3, ""),
	)
	if err := Check(h, Transient); err != nil {
		t.Fatalf("transient should allow the overlapping-write run: %v", err)
	}
	if err := Check(h, Persistent); err == nil {
		t.Fatal("persistent should reject the overlapping-write run")
	}
	// Linearizability (which ignores crashes and lets pending replies float)
	// also allows it; the persistent criterion is strictly stronger exactly
	// because it bounds the completion at the next invocation.
	if err := Check(h, Linearizable); err != nil {
		t.Fatalf("linearizable baseline: %v", err)
	}
}

// TestTheorem1PropertyP1 checks the paper's property P1: under persistent
// atomicity, if a read invoked after the invocation of W(v3) returns v1,
// then no subsequent read returns v2.
func TestTheorem1PropertyP1(t *testing.T) {
	mk := func(r1, r2 string) history.History {
		return hb(
			inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
			inv(1, history.Write, 2, "v2"),
			crash(1),
			recover1(1),
			inv(1, history.Write, 3, "v3"),
			inv(2, history.Read, 4, ""), ret(2, history.Read, 4, r1),
			inv(2, history.Read, 5, ""), ret(2, history.Read, 5, r2),
			ret(1, history.Write, 3, ""),
		)
	}
	tests := []struct {
		r1, r2 string
		wantOK bool
	}{
		{"v1", "v1", true}, // v2 cancelled
		{"v1", "v3", true}, // v2 cancelled, v3 took effect
		{"v2", "v2", true}, // v2 completed before W(v3)
		{"v2", "v3", true},
		{"v3", "v3", true},
		{"v1", "v2", false}, // P1 violated: v1 then v2
		{"v2", "v1", false}, // plain new-old inversion
		{"v3", "v1", false},
		{"v3", "v2", false},
	}
	for _, tt := range tests {
		err := Check(mk(tt.r1, tt.r2), Persistent)
		if tt.wantOK && err != nil {
			t.Errorf("reads (%s,%s): unexpected violation: %v", tt.r1, tt.r2, err)
		}
		if !tt.wantOK && err == nil {
			t.Errorf("reads (%s,%s): persistent check accepted P1 violation", tt.r1, tt.r2)
		}
	}
}

// TestTheorem2RunRho4 encodes Figure 3: the reader reads v2, crashes,
// recovers, and reads v1 while W(v2) is still pending. No mode accepts it —
// which is why a reader that does not log cannot emulate even transient
// atomicity (the run is indistinguishable from the legal ρ2 and ρ3).
func TestTheorem2RunRho4(t *testing.T) {
	rho4 := hb(
		inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "v2"),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "v2"),
		crash(2),
		recover1(2),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "v1"),
	)
	for _, m := range allModes() {
		if err := Check(rho4, m); err == nil {
			t.Fatalf("%v: accepted run rho4", m)
		}
	}
	// The two bordering runs are individually fine.
	rho2 := hb(
		inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "v2"),
		crash(2),
		recover1(2),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "v1"),
	)
	rho3 := hb(
		inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "v2"),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "v2"),
		crash(2),
		recover1(2),
	)
	for _, m := range allModes() {
		if err := Check(rho2, m); err != nil {
			t.Fatalf("%v rho2: %v", m, err)
		}
		if err := Check(rho3, m); err != nil {
			t.Fatalf("%v rho3: %v", m, err)
		}
	}
}

// TestTransientBoundIsNextWriteReply: after the writer's next write
// *completes*, the orphaned write may no longer take effect; a read that
// still observes it violates transient atomicity.
func TestTransientBoundIsNextWriteReply(t *testing.T) {
	// W(v2) pending; recovery; W(v3) completes; W(v4) completes; read
	// returns v2 afterwards. The completion bound for W(v2) is W(v3)'s
	// reply, so W(v2) precedes W(v4); reading v2 after W(v4) is illegal.
	h := hb(
		inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "v2"),
		crash(1),
		recover1(1),
		inv(1, history.Write, 3, "v3"), ret(1, history.Write, 3, ""),
		inv(1, history.Write, 4, "v4"), ret(1, history.Write, 4, ""),
		inv(2, history.Read, 5, ""), ret(2, history.Read, 5, "v2"),
	)
	if err := Check(h, Transient); err == nil {
		t.Fatal("transient accepted orphan value past the next completed write")
	}
	// But reading v2 while only W(v3) has completed and the read overlaps
	// nothing else is still a violation? No: the read starts after W(v3)'s
	// reply, and W(v2)'s completion bound is exactly that reply, so W(v2)
	// precedes the read's invocation — order W(v1) W(v2) W(v3) R(v2) is
	// illegal, but order W(v1) W(v3) W(v2) R(v2) requires W(v2) after
	// W(v3)... W(v2)'s reply (before reply(v3)) is before inv(R), and
	// W(v3) does not precede W(v2) (its reply is not before W(v2)'s
	// invocation? W(v2) was invoked before W(v3)) — they overlap, so the
	// witness W(v1) W(v3) W(v2) R(v2) is valid.
	h2 := hb(
		inv(1, history.Write, 1, "v1"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "v2"),
		crash(1),
		recover1(1),
		inv(1, history.Write, 3, "v3"), ret(1, history.Write, 3, ""),
		inv(2, history.Read, 5, ""), ret(2, history.Read, 5, "v2"),
	)
	if err := Check(h2, Transient); err != nil {
		t.Fatalf("transient should allow orphan observed before a second completed write: %v", err)
	}
	if err := Check(h2, Persistent); err == nil {
		t.Fatal("persistent should reject the orphan observed after W(v3) completed")
	}
}

func TestMultiRegisterIndependence(t *testing.T) {
	h := hb(
		history.Event{Proc: 1, Kind: history.Invoke, Op: history.Write, OpID: 1, Reg: "x", Value: "a"},
		history.Event{Proc: 1, Kind: history.Return, Op: history.Write, OpID: 1, Reg: "x"},
		history.Event{Proc: 2, Kind: history.Invoke, Op: history.Write, OpID: 2, Reg: "y", Value: "b"},
		history.Event{Proc: 2, Kind: history.Return, Op: history.Write, OpID: 2, Reg: "y"},
		history.Event{Proc: 3, Kind: history.Invoke, Op: history.Read, OpID: 3, Reg: "x"},
		history.Event{Proc: 3, Kind: history.Return, Op: history.Read, OpID: 3, Reg: "x", Value: "a"},
		history.Event{Proc: 3, Kind: history.Invoke, Op: history.Read, OpID: 4, Reg: "y"},
		history.Event{Proc: 3, Kind: history.Return, Op: history.Read, OpID: 4, Reg: "y", Value: history.Bottom},
	)
	err := Check(h, Persistent)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected violation on y, got %v", err)
	}
	if v.Reg != "y" {
		t.Fatalf("violation register = %q, want y", v.Reg)
	}
}

func TestIllFormedHistoryRejected(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"),
		inv(1, history.Write, 2, "b"),
	)
	if err := Check(h, Persistent); err == nil {
		t.Fatal("ill-formed history accepted")
	}
}

func TestLongSequentialHistoryFast(t *testing.T) {
	var events []history.Event
	id := uint64(1)
	for i := 0; i < 500; i++ {
		v := fmt.Sprintf("v%d", i)
		events = append(events,
			inv(1, history.Write, id, v), ret(1, history.Write, id, ""),
		)
		id++
		events = append(events,
			inv(2, history.Read, id, ""), ret(2, history.Read, id, v),
		)
		id++
	}
	h := hb(events...)
	for _, m := range allModes() {
		if err := Check(h, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestViolationErrorString(t *testing.T) {
	v := &Violation{
		Mode:   Persistent,
		Reg:    "x",
		Reason: "why",
		Ops:    []history.Operation{{Proc: 1, Type: history.Write, Value: "v", Ret: history.PendingRet}},
	}
	got := v.Error()
	for _, want := range []string{"persistent-atomic", `"x"`, "why", "p1:W(v)?"} {
		if !contains(got, want) {
			t.Fatalf("Error() = %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// retTag is ret carrying the tag witness of process 1's seq-th write.
func retTag(p int32, op history.OpType, id uint64, v string, seq int64) history.Event {
	e := ret(p, op, id, v)
	e.Tag = tag.Tag{Seq: seq, Writer: 1}
	return e
}

// TestRepeatedValueWithoutWitnessRefused: two unwitnessed writes of one
// value leave a read of it no single write to read from. Check refuses the
// history with a plain error naming the contract, not a verdict; a write of
// ⊥ is refused the same way.
func TestRepeatedValueWithoutWitnessRefused(t *testing.T) {
	repeated := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(2, history.Write, 2, "a"), ret(2, history.Write, 2, ""),
		inv(3, history.Read, 3, ""), ret(3, history.Read, 3, "a"),
	)
	bottom := hb(
		inv(1, history.Write, 1, history.Bottom), ret(1, history.Write, 1, ""),
	)
	for name, h := range map[string]history.History{"repeated": repeated, "bottom": bottom} {
		for _, m := range allModes() {
			err := Check(h, m)
			var v *Violation
			if err == nil || errors.As(err, &v) {
				t.Fatalf("%s, %v: got %v, want a plain contract error", name, m, err)
			}
			if !strings.Contains(err.Error(), "unique per register") || !strings.Contains(err.Error(), `"x"`) {
				t.Fatalf("%s, %v: error %q does not name the register and the contract", name, m, err)
			}
		}
	}
}

// TestTagWitnessDecidesReadsFrom: W(a) is written twice, with W(b) between.
// A read of a carrying the second write's witness is atomic; the same read
// carrying the first write's witness read a value W(b) had overwritten.
func TestTagWitnessDecidesReadsFrom(t *testing.T) {
	mk := func(readTag int64) history.History {
		return hb(
			inv(1, history.Write, 1, "a"), retTag(1, history.Write, 1, "", 1),
			inv(1, history.Write, 2, "b"), retTag(1, history.Write, 2, "", 2),
			inv(1, history.Write, 3, "a"), retTag(1, history.Write, 3, "", 3),
			inv(2, history.Read, 4, ""), retTag(2, history.Read, 4, "a", readTag),
		)
	}
	for _, m := range allModes() {
		if err := Check(mk(3), m); err != nil {
			t.Fatalf("%v: read of the latest W(a): %v", m, err)
		}
		var v *Violation
		if err := Check(mk(1), m); !errors.As(err, &v) {
			t.Fatalf("%v: read of the overwritten W(a) = %v, want a violation", m, err)
		}
	}
}

// TestViolationNamesClustersAndEdges: a violation's reason names the two
// writes whose clusters conflict and the precedence edges between them.
func TestViolationNamesClustersAndEdges(t *testing.T) {
	tests := []struct {
		name string
		h    history.History
		want []string
	}{
		{"new-old inversion", hb(
			inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
			inv(1, history.Write, 2, "b"), ret(1, history.Write, 2, ""),
			inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
			inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "a"),
		), []string{"p1:W(a) and p1:W(b)", "p1:W(a) returned before p2:R(b) was invoked",
			"p1:W(b) returned before p2:R(a) was invoked"}},
		{"stale initial value", hb(
			inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
			inv(2, history.Read, 2, ""), ret(2, history.Read, 2, history.Bottom),
		), []string{"the initial value ⊥ and p1:W(a)", "p1:W(a) returned before p2:R() was invoked"}},
		{"read before its write", hb(
			inv(2, history.Read, 1, ""), ret(2, history.Read, 1, "a"),
			inv(1, history.Write, 2, "a"), ret(1, history.Write, 2, ""),
		), []string{"p2:R(a) returned before p1:W(a), the write it reads from, was invoked"}},
	}
	for _, tt := range tests {
		var v *Violation
		if err := Check(tt.h, Persistent); !errors.As(err, &v) {
			t.Fatalf("%s: got %v, want a violation", tt.name, err)
		}
		for _, want := range tt.want {
			if !strings.Contains(v.Reason, want) {
				t.Errorf("%s: reason %q lacks %q", tt.name, v.Reason, want)
			}
		}
		if len(v.Ops) == 0 {
			t.Errorf("%s: violation carries no operations", tt.name)
		}
	}
}
