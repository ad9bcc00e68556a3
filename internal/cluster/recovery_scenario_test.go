package cluster_test

// Further recovery scenarios: concurrent recoveries racing their write-back
// rounds, crashes of readers mid-operation, and repeated crash-recovery of
// the same process under load.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/wire"
)

// TestDuelingRecoveries: two writers crash mid-write on the same register;
// both recover concurrently, racing their Fig. 4 recovery write-backs. The
// register must converge and the history must stay persistent-atomic.
func TestDuelingRecoveries(t *testing.T) {
	c := newCluster(t, testConfig(5, core.Persistent))
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 4, "x", []byte("base")); err != nil {
		t.Fatal(err)
	}

	// Writers 0 and 1 start writes whose propagation is fully held.
	c.Net().SetFilter(func(e wire.Envelope) bool {
		return !(e.Kind == wire.KindWrite && (e.From == 0 || e.From == 1))
	})
	var done [2]chan error
	for w := 0; w < 2; w++ {
		done[w] = make(chan error, 1)
		go func(w int) {
			_, err := c.Write(ctx, int32(w), "x", []byte(fmt.Sprintf("duel-%d", w)))
			done[w] <- err
		}(w)
	}
	// Wait until both pre-logs exist, then crash both writers.
	waitUntil(t, 5*time.Second, "pre-logs", func() bool {
		for w := int32(0); w < 2; w++ {
			if _, ok, _ := c.Disk(w).Retrieve("writing/x"); !ok {
				return false
			}
		}
		return true
	})
	c.Crash(0)
	c.Crash(1)
	for w := 0; w < 2; w++ {
		if err := <-done[w]; !errors.Is(err, core.ErrCrashed) {
			t.Fatalf("writer %d returned %v", w, err)
		}
	}
	c.Net().SetFilter(nil)

	// Concurrent recoveries: both write-backs race.
	var wg sync.WaitGroup
	for w := int32(0); w < 2; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			if err := c.Recover(ctx, w); err != nil {
				t.Errorf("recover %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	// All readers agree on one final value, and it is one of the three
	// candidates.
	first, _, err := c.Read(ctx, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	switch string(first) {
	case "base", "duel-0", "duel-1":
	default:
		t.Fatalf("unexpected final value %q", first)
	}
	for p := int32(3); p < 5; p++ {
		got, _, err := c.Read(ctx, p, "x")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(first) {
			t.Fatalf("reader %d sees %q, reader 2 sees %q", p, got, first)
		}
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatalf("persistent check: %v", err)
	}
}

// TestReaderCrashMidRead: a reader crashing between its query round and its
// write-back leaves a pending read, which every criterion tolerates.
func TestReaderCrashMidRead(t *testing.T) {
	c := newCluster(t, testConfig(5, core.Persistent))
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 0, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Let the read's query round pass but hold its write-back.
	c.Net().SetFilter(func(e wire.Envelope) bool {
		return !(e.Kind == wire.KindWriteBack && e.From == 2)
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Read(ctx, 2, "x")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Crash(2)
	if err := <-done; !errors.Is(err, core.ErrCrashed) {
		t.Fatalf("interrupted read returned %v", err)
	}
	c.Net().SetFilter(nil)
	if err := c.Recover(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// The pending read must appear in the history and not break anything.
	pendingReads := 0
	for _, op := range c.History().Operations() {
		if op.Type == history.Read && op.Pending() {
			pendingReads++
		}
	}
	if pendingReads != 1 {
		t.Fatalf("pending reads = %d, want 1", pendingReads)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}

// TestCrashLoopUnderLoad: one process crash-loops while the rest keep
// operating; after it finally stays up, it serves correct reads and the
// history checks out.
func TestCrashLoopUnderLoad(t *testing.T) {
	c := newCluster(t, testConfig(5, core.Persistent))
	ctx := testCtx(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writers on processes 0 and 1
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := c.Write(ctx, int32(i%2), "x", []byte(fmt.Sprintf("v%d", i)))
			if err != nil && !errors.Is(err, core.ErrCrashed) && !errors.Is(err, core.ErrDown) {
				t.Errorf("write: %v", err)
				return
			}
			i++
		}
	}()

	// Process 4 crash-loops.
	for cycle := 0; cycle < 8; cycle++ {
		c.Crash(4)
		time.Sleep(2 * time.Millisecond)
		if err := c.Recover(ctx, 4); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	close(stop)
	wg.Wait()

	if _, _, err := c.Read(ctx, 4, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioLazyRestartColdNamespace is the cluster-level conformance case
// for lazy core recovery (docs/adr/0009), on the real log engine: a
// process adopts a populated namespace, crash-loops — including a crash
// immediately after its restart, before anything is touched — and the fresh
// incarnation must serve a never-touched register as the zero state (⊥), a
// populated one correctly, report an O(pending) recovery footprint, and
// keep the whole history persistent-atomic.
func TestScenarioLazyRestartColdNamespace(t *testing.T) {
	cfg := testConfig(3, core.Persistent)
	cfg.DiskBackend = "wal"
	cfg.DiskDir = t.TempDir()
	c := newCluster(t, cfg)
	ctx := testCtx(t)

	// Populate from processes 0 and 1 only: process 2 adopts the whole
	// namespace as a replica but never pre-logs a write, so its restart is a
	// pure-replica recovery with a genuinely empty writing/ set. (The
	// persistent algorithm keeps completed pre-logs forever — a writer's
	// recovery harmlessly re-finishes them, which would show up here as a
	// nonzero PendingWrites.)
	const regs = 120
	for i := 0; i < regs; i++ {
		if _, err := c.Write(ctx, int32(i%2), fmt.Sprintf("cold-%03d", i), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Crash, restart, and crash again straight away: the second incarnation
	// starts from an untouched lazy map, twice over.
	for cycle := 0; cycle < 2; cycle++ {
		if !c.Crash(2) {
			t.Fatalf("cycle %d: crash refused", cycle)
		}
		if err := c.Recover(ctx, 2); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if stats := c.LastRecovery(2); stats.PendingWrites != 0 {
		t.Fatalf("recovery finished %d pending writes on a quiescent crash", stats.PendingWrites)
	}

	// A register nothing ever wrote reads as ⊥ through the full protocol.
	if v, _, err := c.Read(ctx, 2, "never-touched"); err != nil || len(v) != 0 {
		t.Fatalf("read(never-touched) = %q, %v", v, err)
	}
	// Populated registers materialize on demand with their adopted values.
	for _, i := range []int{0, regs / 2, regs - 1} {
		v, _, err := c.Read(ctx, 2, fmt.Sprintf("cold-%03d", i))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("read(cold-%03d) = %q, %v", i, v, err)
		}
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}
