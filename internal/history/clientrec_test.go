package history

import (
	"strings"
	"sync/atomic"
	"testing"

	"recmem/internal/tag"
)

// valloc returns a shared virtual-process allocator starting at base.
func valloc(base int32) func() int32 {
	var n atomic.Int32
	n.Store(base)
	return func() int32 { return n.Add(1) - 1 }
}

func TestClientRecorderSequentialFlow(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	w := r.Invoke(Write, "x", "v1", false)
	r.Return(w, "", tag.Tag{Seq: 1}, 0)
	rd := r.Invoke(Read, "x", "", false)
	r.Return(rd, "v1", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h) != 4 {
		t.Fatalf("recorded %d events, want 4", len(h))
	}
	for _, e := range h {
		if e.Proc != 0 {
			t.Fatalf("sequential op attributed to virtual process %d", e.Proc)
		}
		if e.At == 0 {
			t.Fatal("event missing wall-clock stamp")
		}
	}
	ops := h.Operations()
	if len(ops) != 2 || ops[0].Pending() || ops[1].Pending() {
		t.Fatalf("ops = %+v", ops)
	}
	if ops[1].Tag != (tag.Tag{Seq: 1}) {
		t.Fatalf("read witness = %v", ops[1].Tag)
	}
}

func TestClientRecorderAsyncGoesVirtual(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	a := r.Invoke(Write, "x", "a", true)
	b := r.Invoke(Write, "x", "b", true)
	r.Return(a, "", tag.Tag{Seq: 1}, 0)
	r.Return(b, "", tag.Tag{Seq: 2}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	procs := map[int32]bool{}
	for _, e := range h {
		procs[e.Proc] = true
		if e.Proc < 100 {
			t.Fatalf("async op attributed to real process %d", e.Proc)
		}
	}
	if len(procs) != 2 {
		t.Fatalf("async ops share a virtual process: %v", procs)
	}
}

func TestClientRecorderRejectedErased(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	id := r.Invoke(Write, "x", "v", false)
	r.Abort(id, AbortRejected)
	if h := r.History(); len(h) != 0 {
		t.Fatalf("rejected invocation survived: %+v", h)
	}
	// The real process id is free again.
	id = r.Invoke(Write, "x", "v2", false)
	r.Return(id, "", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || h[0].Proc != 0 {
		t.Fatalf("h = %+v", h)
	}
}

func TestClientRecorderUnknownFateStaysPendingVirtual(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	id := r.Invoke(Write, "x", "v", false)
	r.Abort(id, AbortUnknown)
	next := r.Invoke(Write, "x", "v2", false)
	r.Return(next, "", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := h.Operations()
	if len(ops) != 2 {
		t.Fatalf("ops = %+v", ops)
	}
	if !ops[0].Pending() || ops[0].Proc < 100 {
		t.Fatalf("unknown-fate op = %+v (want pending on a virtual process)", ops[0])
	}
	if ops[1].Proc != 0 {
		t.Fatalf("next op = %+v (want the real process)", ops[1])
	}
}

func TestClientRecorderCrashRecover(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	id := r.Invoke(Write, "x", "v", false)
	r.Crash()
	r.Crash() // duplicate confirmation: ignored
	r.Abort(id, AbortUnknown)
	r.Recover()
	next := r.Invoke(Read, "x", "", false)
	r.Return(next, "v", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	var crashes, recovers int
	for _, e := range h {
		switch e.Kind {
		case Crash:
			crashes++
		case Recover:
			recovers++
		}
	}
	if crashes != 1 || recovers != 1 {
		t.Fatalf("%d crashes, %d recovers", crashes, recovers)
	}
}

// A success reply racing past the recorded crash is reattributed, never
// forged into the pre-crash past.
func TestClientRecorderLateSuccessAfterCrash(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	id := r.Invoke(Write, "x", "v", false)
	r.Crash()
	r.Return(id, "", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := h.Operations()
	if len(ops) != 1 || ops[0].Pending() || ops[0].Proc < 100 {
		t.Fatalf("ops = %+v (want completed on a virtual process)", ops)
	}
}

// Regression: the reply may race past an entire crash/recover cycle — the
// process is up again when it lands, but a crash still intervened since the
// invocation, so it must be reattributed (the `down` check alone produced
// Invoke, Crash, Recover, Return on one process: ill-formed).
func TestClientRecorderLateSuccessAfterCrashAndRecover(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	id := r.Invoke(Write, "x", "v", false)
	r.Crash()
	r.Recover()
	r.Return(id, "", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := h.Operations()
	if len(ops) != 1 || ops[0].Pending() || ops[0].Proc < 100 {
		t.Fatalf("ops = %+v (want completed on a virtual process)", ops)
	}
	// The real process is free for the next sequential op.
	next := r.Invoke(Read, "x", "", false)
	r.Return(next, "v", tag.Tag{Seq: 1}, 0)
	h = r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if last := h[len(h)-1]; last.Proc != 0 {
		t.Fatalf("next op attributed to %d, want the real process", last.Proc)
	}
}

// counts tallies the crash/recover events of a history.
func counts(h History) (crashes, recovers int) {
	for _, e := range h {
		switch e.Kind {
		case Crash:
			crashes++
		case Recover:
			recovers++
		}
	}
	return
}

// An epoch advance with no injected crash on record is a death nobody
// injected — the real process restart of a kill-torture run. The recorder
// must infer the crash/recover pair and reattribute the triggering reply
// (it completed in an incarnation the recorder never saw start).
func TestClientRecorderInfersCrashFromEpochAdvance(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	a := r.Invoke(Write, "x", "a", false)
	r.Return(a, "", tag.Tag{Seq: 1}, 5)
	b := r.Invoke(Write, "x", "b", false)
	r.Return(b, "", tag.Tag{Seq: 2}, 6) // node restarted mid-op
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	crashes, recovers := counts(h)
	if crashes != 1 || recovers != 1 {
		t.Fatalf("%d crashes, %d recovers (want 1 inferred pair)", crashes, recovers)
	}
	ops := h.Operations()
	if len(ops) != 2 || ops[1].Proc < 100 {
		t.Fatalf("ops = %+v (want the epoch-crossing op on a virtual process)", ops)
	}
	if err := r.EpochViolation(); err != nil {
		t.Fatal(err)
	}
}

// An epoch advance right after an INJECTED crash is the expected recovery,
// not a second death: no extra events may appear.
func TestClientRecorderEpochAdvanceAfterInjectedCrash(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	a := r.Invoke(Write, "x", "a", false)
	r.Return(a, "", tag.Tag{Seq: 1}, 5)
	r.Crash()
	r.Recover()
	b := r.Invoke(Write, "x", "b", false)
	r.Return(b, "", tag.Tag{Seq: 2}, 6)
	c := r.Invoke(Read, "x", "", false)
	r.Return(c, "b", tag.Tag{Seq: 2}, 6)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	crashes, recovers := counts(h)
	if crashes != 1 || recovers != 1 {
		t.Fatalf("%d crashes, %d recovers (want only the injected pair)", crashes, recovers)
	}
	if err := r.EpochViolation(); err != nil {
		t.Fatal(err)
	}
}

// An epoch going backwards is not a crash but a broken node (stale
// incarnation replay): the recorder reports a sticky violation.
func TestClientRecorderEpochRegressionIsViolation(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	a := r.Invoke(Write, "x", "a", false)
	r.Return(a, "", tag.Tag{Seq: 1}, 6)
	b := r.Invoke(Write, "x", "b", false)
	r.Return(b, "", tag.Tag{Seq: 2}, 5)
	err := r.EpochViolation()
	if err == nil {
		t.Fatal("epoch regression went unreported")
	}
	if got := err.Error(); !strings.Contains(got, "violation") {
		t.Fatalf("err = %q, want it to name a violation", got)
	}
	// Well-formedness is preserved regardless.
	if err := r.History().Validate(); err != nil {
		t.Fatal(err)
	}
}

// A node that fails to mint past a recorded crash — the -freeze-epoch
// negative control — violates the floor set at the injected crash.
func TestClientRecorderFrozenEpochAfterCrashIsViolation(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	a := r.Invoke(Write, "x", "a", false)
	r.Return(a, "", tag.Tag{Seq: 1}, 5)
	r.Crash()
	r.Recover()
	b := r.Invoke(Write, "x", "b", false)
	r.Return(b, "", tag.Tag{Seq: 2}, 5) // same epoch past a crash: frozen
	if r.EpochViolation() == nil {
		t.Fatal("frozen epoch past an injected crash went unreported")
	}
}

// Zero epochs (a backend without epoch support) disable the inference
// entirely — no events, no violations.
func TestClientRecorderZeroEpochIgnored(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	a := r.Invoke(Write, "x", "a", false)
	r.Return(a, "", tag.Tag{Seq: 1}, 0)
	b := r.Invoke(Write, "x", "b", false)
	r.Return(b, "", tag.Tag{Seq: 2}, 0)
	if c, rec := counts(r.History()); c != 0 || rec != 0 {
		t.Fatalf("%d crashes, %d recovers from zero epochs", c, rec)
	}
	if err := r.EpochViolation(); err != nil {
		t.Fatal(err)
	}
}

// An invocation while the process is believed down (or while an earlier
// real invocation is unresolved) goes virtual so the local history stays
// well-formed whatever the reply order.
func TestClientRecorderInvokeWhileDownOrPending(t *testing.T) {
	r := NewClientRecorder(0, valloc(100))
	r.Crash()
	id := r.Invoke(Read, "x", "", false)
	r.Return(id, "", tag.Tag{}, 0)
	r.Recover()

	first := r.Invoke(Write, "x", "a", false)
	second := r.Invoke(Write, "x", "b", false) // first still unresolved
	r.Return(second, "", tag.Tag{Seq: 2}, 0)
	r.Return(first, "", tag.Tag{Seq: 1}, 0)
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := h.Operations()
	if len(ops) != 3 {
		t.Fatalf("ops = %+v", ops)
	}
	if ops[0].Proc < 100 || ops[2].Proc < 100 {
		t.Fatalf("down-time and overlapping invocations must go virtual: %+v", ops)
	}
	if ops[1].Proc != 0 {
		t.Fatalf("first write should hold the real process: %+v", ops)
	}
}
