package cluster_test

// Scenario tests: deterministic message schedules reproducing the paper's
// Figures 1-3 and the adversarial schedules of docs/adr/0024. A gate
// installed as the network filter controls (a) which processes' acknowledgements each
// destination hears — pinning every round's quorum — and (b) which processes
// a writer's W messages reach — creating partially propagated ("floating")
// writes.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// gate is a scriptable message filter.
type gate struct {
	mu         sync.Mutex
	ackAllow   map[int32]map[int32]bool // dest -> allowed ack senders (nil = all)
	writeAllow map[int32]map[int32]bool // writer -> allowed W destinations (nil = all)
}

func newGate() *gate {
	return &gate{
		ackAllow:   make(map[int32]map[int32]bool),
		writeAllow: make(map[int32]map[int32]bool),
	}
}

func (g *gate) filter(e wire.Envelope) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.Kind.IsAck() {
		if allowed := g.ackAllow[e.To]; allowed != nil && !allowed[e.From] {
			return false
		}
		return true
	}
	if e.Kind == wire.KindWrite {
		if allowed := g.writeAllow[e.From]; allowed != nil && !allowed[e.To] {
			return false
		}
	}
	return true
}

func set(ids ...int32) map[int32]bool {
	m := make(map[int32]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// hearAcksFrom pins the quorum of rounds run at dest: only acks from the
// given senders get through.
func (g *gate) hearAcksFrom(dest int32, senders ...int32) {
	g.mu.Lock()
	g.ackAllow[dest] = set(senders...)
	g.mu.Unlock()
}

// deliverWritesTo restricts W messages sent by writer to the given
// destinations (W only — read write-backs are unaffected).
func (g *gate) deliverWritesTo(writer int32, dests ...int32) {
	g.mu.Lock()
	g.writeAllow[writer] = set(dests...)
	g.mu.Unlock()
}

// clear lifts all restrictions (e.g. for a recovery procedure).
func (g *gate) clear() {
	g.mu.Lock()
	g.ackAllow = make(map[int32]map[int32]bool)
	g.writeAllow = make(map[int32]map[int32]bool)
	g.mu.Unlock()
}

// scenario wraps a cluster with gating and scripted crash helpers.
type scenario struct {
	t *testing.T
	c *cluster.Cluster
	g *gate
}

func newScenario(t *testing.T, cfg cluster.Config) *scenario {
	t.Helper()
	s := &scenario{t: t, c: newCluster(t, cfg), g: newGate()}
	s.c.Net().SetFilter(s.g.filter)
	return s
}

func (s *scenario) write(proc int32, reg, val string) {
	s.t.Helper()
	if _, err := s.c.Write(testCtx(s.t), proc, reg, []byte(val)); err != nil {
		s.t.Fatalf("write %s=%s at %d: %v", reg, val, proc, err)
	}
}

func (s *scenario) read(proc int32, reg string) string {
	s.t.Helper()
	val, _, err := s.c.Read(testCtx(s.t), proc, reg)
	if err != nil {
		s.t.Fatalf("read %s at %d: %v", reg, proc, err)
	}
	return string(val)
}

// waitValue polls until proc's volatile state for reg holds val.
func (s *scenario) waitValue(proc int32, reg, val string) {
	s.t.Helper()
	waitUntil(s.t, 5*time.Second, "adoption of "+val+" at node", func() bool {
		_, v, ok := s.c.Node(proc).RegisterState(reg)
		return ok && string(v) == val
	})
}

// crashDuringWrite starts a write of val at writer whose W messages reach
// only floatTarget and whose rounds hear acks only from queryQuorum; once
// floatTarget adopts the value, the writer crashes. The interrupted write
// stays pending. Restrictions are lifted afterwards, and the writer is
// recovered (its recovery procedure — if any — runs ungated).
func (s *scenario) crashDuringWrite(writer int32, reg, val string, floatTarget int32, queryQuorum ...int32) {
	s.t.Helper()
	s.g.hearAcksFrom(writer, queryQuorum...)
	s.g.deliverWritesTo(writer, floatTarget)
	done := make(chan error, 1)
	go func() {
		_, err := s.c.Write(testCtx(s.t), writer, reg, []byte(val))
		done <- err
	}()
	s.waitValue(floatTarget, reg, val)
	s.c.Crash(writer)
	if err := <-done; !errors.Is(err, core.ErrCrashed) {
		s.t.Fatalf("interrupted write returned %v", err)
	}
	s.g.clear()
	if err := s.c.Recover(testCtx(s.t), writer); err != nil {
		s.t.Fatalf("recover writer: %v", err)
	}
}

// TestFigure1TransientRun reproduces the left run of Figure 1 with the
// transient algorithm (Fig. 5): W(v1) completes; W(v2) crashes after
// reaching only p3; the writer recovers and starts W(v3); while W(v3) is in
// progress, two sequential reads return v1 and then v2 — the "overlapping
// write" behaviour. The history satisfies transient atomicity but violates
// persistent atomicity (property P1 of Theorem 1's proof).
func TestFigure1TransientRun(t *testing.T) {
	s := newScenario(t, testConfig(5, core.Transient))

	s.write(0, "x", "v1")
	for p := int32(0); p < 5; p++ {
		s.waitValue(p, "x", "v1") // full adoption so any quorum sees v1
	}
	// W(v2) reaches only p3, then the writer crashes and recovers.
	s.crashDuringWrite(0, "x", "v2", 3, 0, 1, 2)

	// W(v3) starts but its propagation is held: it stays in flight while
	// the reads run (the reads' invocations follow W(v3)'s in the history).
	s.g.hearAcksFrom(0, 0, 1, 2)
	s.g.deliverWritesTo(0 /* nobody */)
	v3done := make(chan error, 1)
	go func() {
		_, err := s.c.Write(testCtx(t), 0, "x", []byte("v3"))
		v3done <- err
	}()
	// Give W(v3)'s invocation time to be recorded before the reads start.
	waitUntil(t, 5*time.Second, "W(v3) invoked", func() bool {
		for _, op := range s.c.History().Operations() {
			if op.Value == "v3" {
				return true
			}
		}
		return false
	})

	// R1 at p1 hears {0,1,2}: none of them saw v2, so it returns v1.
	s.g.hearAcksFrom(1, 0, 1, 2)
	if got := s.read(1, "x"); got != "v1" {
		t.Fatalf("R1 = %q, want v1", got)
	}
	// R2 at p1 hears {1,2,3}: p3 holds v2 with the higher timestamp.
	s.g.hearAcksFrom(1, 1, 2, 3)
	if got := s.read(1, "x"); got != "v2" {
		t.Fatalf("R2 = %q, want v2", got)
	}

	// Release W(v3) and let it complete.
	s.g.clear()
	if err := <-v3done; err != nil {
		t.Fatalf("W(v3): %v", err)
	}
	if got := s.read(2, "x"); got != "v3" {
		t.Fatalf("final read = %q, want v3", got)
	}

	// The run is transient-atomic (the paper's witness: W(v1), R(v1),
	// W(v2), R(v2), W(v3)) but not persistent-atomic: a read invoked after
	// inv(W(v3)) returned v1, yet a subsequent read returned v2.
	if err := s.c.Check(atomicity.Transient); err != nil {
		t.Fatalf("transient check: %v", err)
	}
	if err := s.c.Check(atomicity.Persistent); err == nil {
		t.Fatal("persistent check accepted the overlapping-write run")
	}
}

// TestFigure2RunRho1Persistent replays the same schedule as Figure 1 against
// the persistent algorithm (Fig. 4). Its recovery finishes the interrupted
// W(v2) ("complete v2" — the only resolution of run ρ1 compatible with
// property P1), so the first read already returns v2 and the history is
// persistent-atomic.
func TestFigure2RunRho1Persistent(t *testing.T) {
	s := newScenario(t, testConfig(5, core.Persistent))

	s.write(0, "x", "v1")
	for p := int32(0); p < 5; p++ {
		s.waitValue(p, "x", "v1")
	}
	// W(v2) floats to p3; the writer crashes; recovery (ungated) completes
	// the write at a majority.
	s.crashDuringWrite(0, "x", "v2", 3, 0, 1, 2)

	// Same read pattern as the transient run.
	s.g.hearAcksFrom(1, 0, 1, 2)
	r1 := s.read(1, "x")
	s.g.hearAcksFrom(1, 1, 2, 3)
	r2 := s.read(1, "x")
	s.g.clear()
	s.write(0, "x", "v3")

	// P1: with the persistent algorithm, v2 was completed by recovery, so
	// no read after recovery can return v1.
	if r1 != "v2" || r2 != "v2" {
		t.Fatalf("reads = %q, %q; want v2, v2 (recovery must finish the write)", r1, r2)
	}
	if err := s.c.Check(atomicity.Persistent); err != nil {
		t.Fatalf("persistent check: %v", err)
	}
}

// TestFigure3ReaderMustLog demonstrates Theorem 2 ("no emulation can read
// without logging") by re-running run ρ4 against the UnsafeNoReadLog
// ablation: the reader observes the partially propagated v2, the write-back
// is adopted only in volatile memory, the adopters crash and recover, and a
// second read returns v1 — a transient-atomicity violation. The control run
// with read logging enabled returns v2 and passes.
func TestFigure3ReaderMustLog(t *testing.T) {
	run := func(t *testing.T, unsafe bool) (second string, err error) {
		cfg := testConfig(5, core.Persistent)
		cfg.Node.UnsafeNoReadLog = unsafe
		s := newScenario(t, cfg)

		s.write(0, "x", "v1")
		for p := int32(0); p < 5; p++ {
			s.waitValue(p, "x", "v1")
		}

		// W(v2) reaches only p3 and stays in flight (the writer never hears
		// the float's ack, so the operation keeps retransmitting).
		s.g.hearAcksFrom(0, 0, 1, 2)
		s.g.deliverWritesTo(0, 3)
		v2done := make(chan error, 1)
		go func() {
			_, err := s.c.Write(testCtx(t), 0, "x", []byte("v2"))
			v2done <- err
		}()
		s.waitValue(3, "x", "v2")

		// R1 at the reader p2 hears {2,3,4}: it sees p3's v2 and writes it
		// back to everyone (logged or not, depending on the ablation).
		s.g.hearAcksFrom(2, 2, 3, 4)
		if got := s.read(2, "x"); got != "v2" {
			t.Fatalf("R1 = %q, want v2", got)
		}
		// Wait for the write-back to reach p1 and p4's volatile state.
		s.waitValue(1, "x", "v2")
		s.waitValue(4, "x", "v2")

		// The reader and the other write-back adopters crash and recover;
		// only what was logged survives.
		for _, p := range []int32{1, 2, 4} {
			s.c.Crash(p)
		}
		for _, p := range []int32{1, 2, 4} {
			if err := s.c.Recover(testCtx(t), p); err != nil {
				t.Fatalf("recover %d: %v", p, err)
			}
		}

		// R2 at the recovered reader hears {1,2,4}.
		s.g.hearAcksFrom(2, 1, 2, 4)
		second = s.read(2, "x")

		// Unstick and finish the pending W(v2) so the cluster winds down.
		s.c.Crash(0)
		if err := <-v2done; !errors.Is(err, core.ErrCrashed) {
			t.Fatalf("W(v2) returned %v", err)
		}
		return second, s.c.Check(atomicity.Transient)
	}

	t.Run("ablation", func(t *testing.T) {
		second, err := run(t, true)
		if second != "v1" {
			t.Fatalf("R2 = %q, want v1 (unlogged write-back must be lost)", second)
		}
		var v *atomicity.Violation
		if !errors.As(err, &v) {
			t.Fatalf("expected transient violation, got %v", err)
		}
	})
	t.Run("control", func(t *testing.T) {
		second, err := run(t, false)
		if second != "v2" {
			t.Fatalf("R2 = %q, want v2 (read logging preserves the observed value)", second)
		}
		if err != nil {
			t.Fatalf("control run violated transient atomicity: %v", err)
		}
	})
}

// orphanSchedule drives the five-node adversarial schedule of docs/adr/0024:
// five crash-interrupted writes whose round-1 quorums alternately include
// the previous float holder (ratcheting a high "floating" timestamp onto
// p3/p4 while {0,1,2} stay at zero), followed by two completed writes
// quorumed on {0,1,2} and a read that hears the float holder.
func orphanSchedule(t *testing.T, s *scenario) (readValue string) {
	t.Helper()
	s.crashDuringWrite(0, "x", "f1", 3, 0, 1, 2) // tag seq 1 -> p3
	s.crashDuringWrite(0, "x", "f2", 4, 0, 1, 3) // hears p3's 1
	s.crashDuringWrite(0, "x", "f3", 3, 0, 1, 4) // hears p4's
	s.crashDuringWrite(0, "x", "f4", 4, 0, 1, 3)
	s.crashDuringWrite(0, "x", "f5", 3, 0, 1, 4)

	// Two writes that complete on the low quorum {0,1,2}.
	s.g.hearAcksFrom(0, 0, 1, 2)
	s.g.deliverWritesTo(0, 0, 1, 2)
	s.write(0, "x", "v6")
	s.write(0, "x", "v7")

	// A read that hears the float holder p3.
	s.g.hearAcksFrom(1, 1, 2, 3)
	got := s.read(1, "x")
	s.g.clear()
	return got
}

// TestTransientOrphanDominance runs the adversarial schedule against the
// literal Fig. 5 algorithm: the orphaned timestamp outlives two completed
// writes, a read returns the orphan value, and the checker reports a
// transient-atomicity violation. The same schedule against the persistent
// algorithm is clean — its writer pre-log plus recovery write-back (the
// second causal log of Theorem 1) is exactly what prevents the orphan.
func TestTransientOrphanDominance(t *testing.T) {
	t.Run("transient-literal", func(t *testing.T) {
		s := newScenario(t, testConfig(5, core.Transient))
		got := orphanSchedule(t, s)
		if got != "f5" {
			t.Fatalf("read = %q, want the orphan f5", got)
		}
		var v *atomicity.Violation
		if err := s.c.Check(atomicity.Transient); !errors.As(err, &v) {
			t.Fatalf("expected transient violation, got %v", err)
		}
	})
	t.Run("persistent", func(t *testing.T) {
		s := newScenario(t, testConfig(5, core.Persistent))
		got := orphanSchedule(t, s)
		if got != "v7" {
			t.Fatalf("read = %q, want v7 (recovery flushes every float)", got)
		}
		if err := s.c.Check(atomicity.Persistent); err != nil {
			t.Fatalf("persistent check: %v", err)
		}
	})
}

// orphanScheduleN3 is the three-node form of orphanSchedule, the mesh size
// recmem-node deploys: the crash-interrupted writes all float on p2, each
// one's round 1 hearing the previous one there (the first hears {0,1}), so
// the k-th float mints sn = k(k+1)/2 (Fig. 5 line 11 with rec = k-1). Two
// writes then complete on {0,1}, which never saw a float, minting
// sn = k+1 and 2(k+1), and a read hears p2.
func orphanScheduleN3(t *testing.T, s *scenario, floats int) (readValue string) {
	t.Helper()
	s.crashDuringWrite(0, "x", "f1", 2, 0, 1)
	for i := 2; i <= floats; i++ {
		s.crashDuringWrite(0, "x", fmt.Sprintf("f%d", i), 2, 0, 2)
	}
	s.g.hearAcksFrom(0, 0, 1)
	s.g.deliverWritesTo(0, 0, 1)
	s.write(0, "x", fmt.Sprintf("v%d", floats+1))
	s.write(0, "x", fmt.Sprintf("v%d", floats+2))
	s.g.hearAcksFrom(1, 1, 2)
	got := s.read(1, "x")
	s.g.clear()
	return got
}

// TestTransientOrphanN3 runs orphanScheduleN3 with recmem-node's one-round
// reads. Four floats only reach sn = 10, the second completed write's sn:
// the literal tags collide, and which value the read returns is decided by
// the order its acknowledgements are scanned in; hardened tags settle the
// tie for the completed write. Five floats (sn = 15 against 12) dominate
// outright, hardened or not: the read returns the orphan f5, and the
// checker catches it.
func TestTransientOrphanN3(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hardened bool
		floats   int
		want     string // the read's value; an f value is the orphan
	}{
		{"literal-five-floats", false, 5, "f5"},
		{"hardened-four-floats", true, 4, "v6"},
		{"hardened-five-floats", true, 5, "f5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(3, core.Transient)
			cfg.Node.OneRoundReads = true
			cfg.Node.HardenedTags = tc.hardened
			s := newScenario(t, cfg)
			if got := orphanScheduleN3(t, s, tc.floats); got != tc.want {
				t.Fatalf("read = %q, want %s", got, tc.want)
			}
			err := s.c.Check(atomicity.Transient)
			var v *atomicity.Violation
			if orphan := tc.want[0] == 'f'; orphan && !errors.As(err, &v) {
				t.Fatalf("expected transient violation, got %v", err)
			} else if !orphan && err != nil {
				t.Fatalf("transient check: %v", err)
			}
		})
	}
}

// TestTransientTagCollision exposes the timestamp collision of the literal
// Fig. 5 transcription (docs/adr/0024): after the schedule, a floating write
// and a later completed write carry the *same* [sn, pid] tag with different
// values. WithHardenedTags the recovery counter tiebreak keeps all tags
// distinct.
func TestTransientTagCollision(t *testing.T) {
	collect := func(t *testing.T, hardened bool) (float tag.Tag, floatVal string, low tag.Tag, lowVal string) {
		cfg := testConfig(5, core.Transient)
		cfg.Node.HardenedTags = hardened
		s := newScenario(t, cfg)
		// f3 floats onto p3 with sn = 6 (query max 3 at p4, rec 2):
		s.crashDuringWrite(0, "x", "f1", 3, 0, 1, 2) // sn 1 -> p3
		s.crashDuringWrite(0, "x", "f2", 4, 0, 1, 3) // sn 1+1+1 = 3 -> p4
		s.crashDuringWrite(0, "x", "f3", 3, 0, 1, 4) // sn 3+2+1 = 6 -> p3
		// ... and a completed write quorumed on the zeros mints sn = 0+5+1?
		// No: rec is 3 here, so sn = 0+3+1 = 4; write twice to reach 6 is
		// wrong — instead crash twice more without floats to pump rec to 5.
		s.c.Crash(0)
		if err := s.c.Recover(testCtx(t), 0); err != nil {
			t.Fatal(err)
		}
		s.c.Crash(0)
		if err := s.c.Recover(testCtx(t), 0); err != nil {
			t.Fatal(err)
		}
		// rec = 5: the completed write mints sn = 0 + 5 + 1 = 6 — colliding
		// with f3's floating tag at p3.
		s.g.hearAcksFrom(0, 0, 1, 2)
		s.g.deliverWritesTo(0, 0, 1, 2)
		s.write(0, "x", "v6")
		s.g.clear()

		ft, fv, _ := s.c.Node(3).RegisterState("x")
		lt, lv, _ := s.c.Node(1).RegisterState("x")
		return ft, string(fv), lt, string(lv)
	}

	t.Run("literal-collides", func(t *testing.T) {
		float, floatVal, low, lowVal := collect(t, false)
		if float != low {
			t.Fatalf("expected tag collision, got %v vs %v", float, low)
		}
		if floatVal == lowVal {
			t.Fatalf("expected different values under one tag, got %q", floatVal)
		}
		t.Logf("confused values: tag %v carries both %q and %q", float, floatVal, lowVal)
	})
	t.Run("hardened-distinct", func(t *testing.T) {
		float, floatVal, low, lowVal := collect(t, true)
		if floatVal == lowVal {
			t.Fatalf("values should differ, got %q", floatVal)
		}
		if float == low {
			t.Fatalf("hardened tags still collide: %v", float)
		}
		if float.Seq != low.Seq || float.Writer != low.Writer || float.Rec == low.Rec {
			t.Fatalf("expected same [sn,pid] disambiguated by rec, got %v vs %v", float, low)
		}
	})
}
