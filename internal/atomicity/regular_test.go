package atomicity

import (
	"errors"
	"strings"
	"testing"

	"recmem/internal/history"
)

func TestRegularSequentialLegal(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(2, history.Read, 2, ""), ret(2, history.Read, 2, "a"),
		inv(1, history.Write, 3, "b"), ret(1, history.Write, 3, ""),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "b"),
	)
	for _, m := range []Mode{Regular, Safe} {
		if err := Check(h, m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestRegularInitialValue(t *testing.T) {
	h := hb(
		inv(2, history.Read, 1, ""), ret(2, history.Read, 1, history.Bottom),
	)
	if err := Check(h, Regular); err != nil {
		t.Fatal(err)
	}
}

func TestRegularStaleQuiescentReadViolation(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"), ret(1, history.Write, 2, ""),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "a"),
	)
	for _, m := range []Mode{Regular, Safe} {
		var v *Violation
		if err := Check(h, m); !errors.As(err, &v) {
			t.Fatalf("%v accepted stale quiescent read: %v", m, err)
		}
	}
}

func TestRegularConcurrentReadMayReturnEither(t *testing.T) {
	mk := func(val string) history.History {
		return hb(
			inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
			inv(1, history.Write, 2, "b"),
			inv(2, history.Read, 3, ""), ret(2, history.Read, 3, val),
			ret(1, history.Write, 2, ""),
		)
	}
	for _, val := range []string{"a", "b"} {
		if err := Check(mk(val), Regular); err != nil {
			t.Fatalf("read of %q during write rejected: %v", val, err)
		}
	}
	if err := Check(mk("ghost"), Regular); err == nil {
		t.Fatal("regular accepted a never-written value")
	}
	// Safe allows anything while concurrent.
	if err := Check(mk("ghost"), Safe); err != nil {
		t.Fatalf("safe rejected concurrent garbage: %v", err)
	}
}

// TestRegularAllowsNewOldInversion is the defining difference from
// atomicity: two sequential reads may see the new value then the old one
// while the write is in progress.
func TestRegularAllowsNewOldInversion(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "a"),
		ret(1, history.Write, 2, ""),
	)
	if err := Check(h, Regular); err != nil {
		t.Fatalf("regular must allow new-old inversion: %v", err)
	}
	// Atomicity forbids exactly this.
	if err := Check(h, Linearizable); err == nil {
		t.Fatal("linearizability accepted new-old inversion")
	}
}

// TestRegularPendingWriteStaysCandidate: a crashed write remains readable
// while its writer invokes nothing after it.
func TestRegularPendingWriteStaysCandidate(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"),
		crash(1),
		recover1(1),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "a"),
	)
	if err := Check(h, Regular); err != nil {
		t.Fatalf("pending write should stay a candidate: %v", err)
	}
}

// TestRegularSupersededPendingWrite: a crashed write's reply is bounded by
// its writer's next invocation, so once the writer's next write completes,
// a read invoked after it may no longer return the crashed write's value.
// Linearizability, which leaves the crashed write pending forever, accepts
// the history; every criterion bounded by the writer's next operation
// rejects it.
func TestRegularSupersededPendingWrite(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"),
		crash(1),
		recover1(1),
		inv(1, history.Write, 2, "b"), ret(1, history.Write, 2, ""),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "b"),
		inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "a"),
	)
	if err := Check(h, Linearizable); err != nil {
		t.Fatalf("linearizable: %v", err)
	}
	for _, m := range []Mode{Persistent, Transient, Regular, Safe} {
		var v *Violation
		if err := Check(h, m); !errors.As(err, &v) {
			t.Fatalf("%v accepted a read of a superseded pending write: %v", m, err)
		}
	}
}

// TestRegularViolationString: a regular or safe violation names its
// criterion.
func TestRegularViolationString(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(1, history.Write, 2, "b"), ret(1, history.Write, 2, ""),
		inv(2, history.Read, 3, ""), ret(2, history.Read, 3, "a"),
	)
	for m, prefix := range map[Mode]string{
		Regular: `regular violation on register "x": `,
		Safe:    `safe violation on register "x": `,
	} {
		err := Check(h, m)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("%v: error %q, want prefix %q", m, err, prefix)
		}
		if want := "p2:R(a) reads from p1:W(a), which p1:W(b) overwrote"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: error %q lacks %q", m, err, want)
		}
	}
}

// TestRegularLatestOfTwoWriters: the checker attributes no write to a
// writer, so writes of two processes are judged like any others. A read
// after both may return only the later one; a read of the earlier one is a
// read of an overwritten value.
func TestRegularLatestOfTwoWriters(t *testing.T) {
	mk := func(val string) history.History {
		return hb(
			inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
			inv(2, history.Write, 2, "b"), ret(2, history.Write, 2, ""),
			inv(3, history.Read, 3, ""), ret(3, history.Read, 3, val),
		)
	}
	if err := Check(mk("b"), Regular); err != nil {
		t.Fatal(err)
	}
	var v *Violation
	if err := Check(mk("a"), Regular); !errors.As(err, &v) {
		t.Fatalf("accepted a read of an overwritten value: %v", err)
	}
}

func TestRegularPendingReadIgnored(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
		inv(2, history.Read, 2, ""),
		crash(2),
	)
	if err := Check(h, Regular); err != nil {
		t.Fatal(err)
	}
}

func TestRegularIllFormedRejected(t *testing.T) {
	h := hb(
		inv(1, history.Write, 1, "a"),
		inv(1, history.Write, 2, "b"),
	)
	if err := Check(h, Regular); err == nil {
		t.Fatal("accepted ill-formed history")
	}
}

// TestRegularVirtualWritersOverlap: writes submitted through the batching
// engine are recorded under one-shot virtual clients and may overlap. A
// read after two overlapping completed writes may return either (both are
// maximal), but a value strictly overwritten by a later non-overlapping
// write is a violation.
func TestRegularVirtualWritersOverlap(t *testing.T) {
	// Two overlapping virtual writes, then a read: either value is legal.
	mk := func(val string) history.History {
		return hb(
			inv(3, history.Write, 1, "a"),
			inv(4, history.Write, 2, "b"),
			ret(3, history.Write, 1, ""),
			ret(4, history.Write, 2, ""),
			inv(1, history.Read, 3, ""), ret(1, history.Read, 3, val),
		)
	}
	for _, val := range []string{"a", "b"} {
		if err := Check(mk(val), Regular); err != nil {
			t.Fatalf("overlapping virtual write %q rejected: %v", val, err)
		}
	}
	if err := Check(mk("ghost"), Regular); err == nil {
		t.Fatal("accepted a never-written value")
	}

	// A write that completed strictly before a later completed write is no
	// longer a candidate for a read after both.
	stale := hb(
		inv(3, history.Write, 1, "a"), ret(3, history.Write, 1, ""),
		inv(4, history.Write, 2, "b"), ret(4, history.Write, 2, ""),
		inv(1, history.Read, 3, ""), ret(1, history.Read, 3, "a"),
	)
	var v *Violation
	if err := Check(stale, Regular); !errors.As(err, &v) {
		t.Fatalf("accepted an overwritten virtual write: %v", err)
	}
}

// TestRegularVirtualAndSyncWriterMix: the synchronous writer and its own
// submitted (virtual) writes coexist. A read after the virtual write
// completed may not return the synchronous write it overwrote.
func TestRegularVirtualAndSyncWriterMix(t *testing.T) {
	mk := func(val string) history.History {
		return hb(
			inv(0, history.Write, 1, "s"), ret(0, history.Write, 1, ""),
			inv(3, history.Write, 2, "v"),
			inv(1, history.Read, 3, ""), ret(1, history.Read, 3, "v"), // concurrent with the virtual write
			ret(3, history.Write, 2, ""),
			inv(1, history.Read, 4, ""), ret(1, history.Read, 4, val),
		)
	}
	for _, m := range []Mode{Regular, Safe} {
		if err := Check(mk("v"), m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var v *Violation
		if err := Check(mk("s"), m); !errors.As(err, &v) {
			t.Fatalf("%v accepted the overwritten synchronous write: %v", m, err)
		}
	}
}

// TestRegularVirtualPendingWrite: a virtual write left pending by a crash
// has no next invocation to bound it, so it stays a candidate for later
// reads.
func TestRegularVirtualPendingWrite(t *testing.T) {
	h := hb(
		inv(0, history.Write, 1, "a"), ret(0, history.Write, 1, ""),
		inv(3, history.Write, 2, "b"),
		crash(0),
		recover1(0),
		inv(1, history.Read, 3, ""), ret(1, history.Read, 3, "b"),
		inv(1, history.Read, 4, ""), ret(1, history.Read, 4, "a"),
	)
	if err := Check(h, Regular); err != nil {
		t.Fatalf("pending virtual write should stay a candidate: %v", err)
	}
}

// TestAtomicImpliesRegular: every linearizable single-writer history here
// is regular (the paper's hierarchy: safe ⊂ regular ⊂ atomic).
func TestAtomicImpliesRegular(t *testing.T) {
	histories := []history.History{
		hb(
			inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
			inv(2, history.Read, 2, ""), ret(2, history.Read, 2, "a"),
		),
		hb(
			inv(1, history.Write, 1, "a"), ret(1, history.Write, 1, ""),
			inv(1, history.Write, 2, "b"),
			inv(3, history.Read, 3, ""), ret(3, history.Read, 3, "b"),
			ret(1, history.Write, 2, ""),
			inv(2, history.Read, 4, ""), ret(2, history.Read, 4, "b"),
		),
	}
	for i, h := range histories {
		if err := Check(h, Linearizable); err != nil {
			t.Fatalf("history %d not linearizable: %v", i, err)
		}
		if err := Check(h, Regular); err != nil {
			t.Fatalf("history %d linearizable but not regular: %v", i, err)
		}
		if err := Check(h, Safe); err != nil {
			t.Fatalf("history %d regular but not safe: %v", i, err)
		}
	}
}
