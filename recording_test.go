package recmem_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"recmem"
)

// TestRecordingOverSimVerifies is the recording pipeline's cross-check: the
// same run is observed twice — by the simulator's global history recorder
// and by per-client Recording wrappers merged through the group — and both
// observers must pass verification.
func TestRecordingOverSimVerifies(t *testing.T) {
	c, err := recmem.New(3, recmem.PersistentAtomic)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	g := recmem.NewRecordingGroup()
	clients := make([]recmem.Client, 3)
	for i := range clients {
		clients[i] = g.Wrap(c.Process(i))
	}

	x := clients[0].Register("x")
	var wit recmem.Tag
	if err := x.Write(ctx, []byte("v1"), recmem.WithWitness(&wit)); err != nil {
		t.Fatal(err)
	}
	if wit.IsZero() {
		t.Fatal("write reported no tag witness")
	}
	var rwit recmem.Tag
	got, err := clients[1].Register("x").Read(ctx, recmem.WithWitness(&rwit))
	if err != nil || string(got) != "v1" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if rwit != wit {
		t.Fatalf("read witness %v, want the write's %v", rwit, wit)
	}

	// Crash/recover through the wrappers; an op against the downed process
	// is rejected and must not pollute the history.
	if err := clients[2].Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[2].Register("x").Read(ctx); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("read on downed process = %v", err)
	}
	if err := clients[2].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Register("x").Write(ctx, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err = clients[2].Register("x").Read(ctx)
	if err != nil || string(got) != "v2" {
		t.Fatalf("post-recovery read = %q, %v", got, err)
	}

	// Async submissions ride one-shot virtual clients, like the simulator's.
	f1, err := clients[0].Register("y").SubmitWrite([]byte("a1"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := clients[0].Register("y").SubmitWrite([]byte("a2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Completed app-level futures surface the epoch and tag witnesses.
	if inc, ok := f1.Incarnation(); !ok || inc == 0 {
		t.Fatalf("future Incarnation = %d, %v", inc, ok)
	}
	if _, ok := f2.TagWitness(); !ok {
		t.Fatal("completed write future reported no tag witness")
	}
	rf, err := clients[1].Register("y").SubmitRead()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rf.Wait(ctx); err != nil || (string(v) != "a1" && string(v) != "a2") {
		t.Fatalf("async read = %q, %v", v, err)
	}

	// Both observers agree the run was atomic.
	if err := c.Verify(); err != nil {
		t.Fatalf("global observer: %v", err)
	}
	if err := g.Verify(recmem.PersistentAtomicity); err != nil {
		t.Fatalf("merged recording: %v", err)
	}
	merged, err := g.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("merged history is empty")
	}
	if hs := g.Histories(); len(hs) != 3 {
		t.Fatalf("Histories returned %d, want 3", len(hs))
	}
}

// TestRecordingWrapIdempotent: a workload driver and a fault injector
// wrapping the same client share one recording.
func TestRecordingWrapIdempotent(t *testing.T) {
	c, err := recmem.New(1, recmem.CrashStop)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := recmem.NewRecordingGroup()
	p := c.Process(0)
	r1 := g.Wrap(p)
	r2 := g.Wrap(p)
	if r1 != r2 {
		t.Fatal("wrapping the same client twice made two recordings")
	}
	if g.Wrap(r1) != r1 {
		t.Fatal("wrapping a recording of the group must return it unchanged")
	}
	if r1.Proc() != 0 || r1.Unwrap() != Client(p) {
		t.Fatalf("Proc/Unwrap = %d, %v", r1.Proc(), r1.Unwrap())
	}
}

// Client is re-exported for the comparison above.
type Client = recmem.Client

// TestRecordingSpansRounds: one group records a run of two rounds and
// verifies the cumulative history after each, so round 2's read of round
// 1's value is checked against round 1's writer — which against an amnesiac
// fresh group it could not be (the read would return a value no recorded
// writer wrote).
func TestRecordingSpansRounds(t *testing.T) {
	c, err := recmem.New(3, recmem.PersistentAtomic)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	g := recmem.NewRecordingGroup()
	raw := make([]recmem.Client, 3)
	clients := make([]recmem.Client, 3)
	for i := range clients {
		raw[i] = c.Process(i)
		clients[i] = g.Wrap(raw[i])
	}
	if err := clients[0].Register("x").Write(ctx, []byte("round1")); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(recmem.PersistentAtomicity); err != nil {
		t.Fatalf("round 1: %v", err)
	}

	// Round 2 re-wraps the same clients and opens with a read of round 1's
	// value — no write this round.
	for i := range clients {
		if r := g.Wrap(raw[i]); r != clients[i] {
			t.Fatal("round 2 got a second recording of a round-1 client")
		}
	}
	if v, err := clients[1].Register("x").Read(ctx); err != nil || string(v) != "round1" {
		t.Fatalf("round-2 read = %q, %v", v, err)
	}
	if err := g.Verify(recmem.PersistentAtomicity); err != nil {
		t.Fatalf("rounds 1 and 2: %v", err)
	}

	// The amnesiac control: a fresh group recording the same read has no
	// writer for the value and must fail verification.
	fresh := recmem.NewRecordingGroup()
	blind := fresh.Wrap(c.Process(1))
	if v, err := blind.Register("x").Read(ctx); err != nil || string(v) != "round1" {
		t.Fatalf("blind read = %q, %v", v, err)
	}
	if err := fresh.Verify(recmem.PersistentAtomicity); err == nil {
		t.Fatal("amnesiac group verified a read with no recorded writer")
	}
}

// TestExpiredDeadlineFailsFast: an already-expired WithDeadline must fail
// with DeadlineExceeded instead of silently running unbounded (regression:
// opCtx used `> 0`, turning negative deadlines into no deadline).
func TestExpiredDeadlineFailsFast(t *testing.T) {
	c, err := recmem.New(3, recmem.PersistentAtomic)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	err = c.Process(0).Register("x").Write(ctx, []byte("v"), recmem.WithDeadline(-time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline write = %v, want DeadlineExceeded", err)
	}
	_, err = c.Process(0).Register("x").Read(ctx, recmem.WithDeadline(-time.Hour))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline read = %v, want DeadlineExceeded", err)
	}
}
