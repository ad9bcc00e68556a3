package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/wire"
)

// slowNet is a latency profile long enough that a burst of submissions
// reliably queues behind the first in-flight round, forcing coalescing.
func slowNet() netsim.Options {
	return netsim.Options{Profile: netsim.Profile{
		Propagation: 2 * time.Millisecond,
		SelfDelay:   100 * time.Microsecond,
	}}
}

func waitAll(t *testing.T, futs []*Future) []error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errs := make([]error, len(futs))
	for i, f := range futs {
		_, errs[i] = f.Wait(ctx)
		if errors.Is(errs[i], context.DeadlineExceeded) {
			t.Fatalf("future %d never completed", i)
		}
	}
	return errs
}

func totalStores(tc *testCluster) int {
	total := 0
	for _, d := range tc.disks {
		if d != nil {
			total += d.Stores()
		}
	}
	return total
}

// TestSubmitWriteCoalesces drives a burst of writes to one register through
// the async API for every algorithm kind: all futures must complete, the
// register must end at the last submitted value, and the burst must cost far
// fewer quorum rounds (and, for the logging algorithms, far fewer stores)
// than one per operation.
func TestSubmitWriteCoalesces(t *testing.T) {
	const burst = 50
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			tc := newTestCluster(t, 3, kind, Options{}, slowNet())
			futs := make([]*Future, burst)
			for i := range futs {
				f, err := tc.nodes[0].SubmitWrite("x", []byte(fmt.Sprintf("v%d", i)), OpObserver{})
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				futs[i] = f
			}
			for i, err := range waitAll(t, futs) {
				if err != nil {
					t.Fatalf("write %d failed: %v", i, err)
				}
			}
			got, _, err := tc.read(1, "x")
			if err != nil {
				t.Fatal(err)
			}
			if got != fmt.Sprintf("v%d", burst-1) {
				t.Fatalf("register = %q, want the last submitted value", got)
			}
			if kind.Recovers() {
				// One at a time, every write stores at the writer and/or the
				// adopters; coalesced, whole batches share one log chain.
				if s := totalStores(tc); s >= burst {
					t.Fatalf("%d stores for %d coalesced writes — batching did not amortize", s, burst)
				}
			}
		})
	}
}

// TestSubmitReadCoalesces: a burst of submitted reads of one register shares
// quorum rounds and all observe the written value.
func TestSubmitReadCoalesces(t *testing.T) {
	const burst = 50
	tc := newTestCluster(t, 3, Persistent, Options{}, slowNet())
	if _, err := tc.write(0, "x", "stable"); err != nil {
		t.Fatal(err)
	}
	before := tc.net.Stats().Sent
	futs := make([]*Future, burst)
	for i := range futs {
		f, err := tc.nodes[1].SubmitRead("x", OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	ctx := tc.ctx()
	for i, f := range futs {
		val, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(val) != "stable" {
			t.Fatalf("read %d = %q", i, val)
		}
	}
	// One at a time, 50 reads over 3 nodes cost >= 50*2*3 = 300 sends; coalesced
	// they collapse to a handful of rounds.
	if sent := tc.net.Stats().Sent - before; sent >= burst*2*3 {
		t.Fatalf("%d sends for %d coalesced reads — no amortization", sent, burst)
	}
}

// TestSubmitPipelinesRegisters: submissions to distinct registers run their
// rounds concurrently, and the outbox group-commits their broadcasts into
// batch frames (visible in the network's frame accounting).
func TestSubmitPipelinesRegisters(t *testing.T) {
	const regs = 20
	tc := newTestCluster(t, 3, Persistent, Options{}, slowNet())
	futs := make([]*Future, regs)
	for i := range futs {
		f, err := tc.nodes[0].SubmitWrite(fmt.Sprintf("r%d", i), []byte("v"), OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, err := range waitAll(t, futs) {
		if err != nil {
			t.Fatalf("write to r%d failed: %v", i, err)
		}
	}
	if bf := tc.net.Stats().BatchFrames; bf == 0 {
		t.Fatal("no batch frames on the wire — pipelined rounds did not share frames")
	}
	for i := 0; i < regs; i++ {
		got, _, err := tc.read(2, fmt.Sprintf("r%d", i))
		if err != nil || got != "v" {
			t.Fatalf("r%d = %q, %v", i, got, err)
		}
	}
}

// TestSubmitCrashMidBatch crashes the submitting node while a batch is in
// flight: every future must complete (no hangs), each either acknowledged or
// ErrCrashed — and after recovery every acknowledged write must be durable:
// the register's value must be an acknowledged submission or a later one.
func TestSubmitCrashMidBatch(t *testing.T) {
	for _, kind := range []AlgorithmKind{Persistent, Transient, Naive} {
		t.Run(kind.String(), func(t *testing.T) {
			const burst = 40
			tc := newTestCluster(t, 3, kind, Options{}, slowNet())
			futs := make([]*Future, burst)
			for i := range futs {
				f, err := tc.nodes[0].SubmitWrite("x", []byte(fmt.Sprintf("v%d", i)), OpObserver{})
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				futs[i] = f
			}
			time.Sleep(3 * time.Millisecond) // let some of the batch commit
			tc.crash(0)
			errs := waitAll(t, futs)
			lastAcked := -1
			for i, err := range errs {
				switch {
				case err == nil:
					lastAcked = i
				case errors.Is(err, ErrCrashed):
				default:
					t.Fatalf("future %d: unexpected error %v", i, err)
				}
			}
			if err := tc.recover(0); err != nil {
				t.Fatalf("recover: %v", err)
			}
			got, _, err := tc.read(1, "x")
			if err != nil {
				t.Fatal(err)
			}
			if lastAcked >= 0 {
				// An acknowledged op is durable: the value cannot have
				// regressed to before the last acknowledged write.
				var gotIdx int
				if _, err := fmt.Sscanf(got, "v%d", &gotIdx); err != nil {
					t.Fatalf("register = %q after acked writes", got)
				}
				if gotIdx < lastAcked {
					t.Fatalf("register = %q but write %d was acknowledged — acked op lost", got, lastAcked)
				}
			}
		})
	}
}

// TestSubmitAdmissionErrors: the async API rejects exactly what the sync API
// rejects, at submission time.
func TestSubmitAdmissionErrors(t *testing.T) {
	tc := newTestCluster(t, 3, Persistent, Options{}, netsim.Options{})
	if _, err := tc.nodes[0].SubmitWrite("x", make([]byte, wire.MaxValueSize+1), OpObserver{}); !errors.Is(err, wire.ErrValueTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	tc.crash(0)
	if _, err := tc.nodes[0].SubmitWrite("x", []byte("v"), OpObserver{}); !errors.Is(err, ErrDown) {
		t.Fatalf("down submit write: %v", err)
	}
	if _, err := tc.nodes[0].SubmitRead("x", OpObserver{}); !errors.Is(err, ErrDown) {
		t.Fatalf("down submit read: %v", err)
	}
}

// TestSubmitRegularSW: the single-writer register batches too, and
// non-writers are rejected at submission.
func TestSubmitRegularSW(t *testing.T) {
	tc := newTestCluster(t, 3, RegularSW, Options{}, slowNet())
	if _, err := tc.nodes[1].SubmitWrite("x", []byte("v"), OpObserver{}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("non-writer: %v", err)
	}
	futs := make([]*Future, 20)
	for i := range futs {
		f, err := tc.nodes[0].SubmitWrite("x", []byte(fmt.Sprintf("v%d", i)), OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, err := range waitAll(t, futs) {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got, _, err := tc.read(1, "x")
	if err != nil || got != "v19" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

// TestSubmitMixedReadsAndWrites: reads submitted into a write burst return
// the batch's write (or a later one), never an interleaving-violating stale
// value, and everything completes.
func TestSubmitMixedReadsAndWrites(t *testing.T) {
	tc := newTestCluster(t, 3, Persistent, Options{}, slowNet())
	if _, err := tc.write(0, "x", "v-1"); err != nil {
		t.Fatal(err)
	}
	var wfuts, rfuts []*Future
	for i := 0; i < 20; i++ {
		wf, err := tc.nodes[0].SubmitWrite("x", []byte(fmt.Sprintf("v%d", i)), OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		wfuts = append(wfuts, wf)
		rf, err := tc.nodes[0].SubmitRead("x", OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		rfuts = append(rfuts, rf)
	}
	for i, err := range waitAll(t, wfuts) {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	ctx := tc.ctx()
	for i, f := range rfuts {
		val, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var idx int
		if _, err := fmt.Sscanf(string(val), "v%d", &idx); err != nil || idx < -1 {
			t.Fatalf("read %d = %q", i, val)
		}
	}
}

// TestMixedSyncAsyncWritesNeverShareTags races the synchronous Write path
// against the batching engine on one register: without per-register
// serialization of tag minting, both executions can observe the same
// majority maximum and mint the same timestamp for different values, after
// which replicas adopting in different orders disagree forever. The
// invariant: across all replicas, one timestamp always names one value.
func TestMixedSyncAsyncWritesNeverShareTags(t *testing.T) {
	tc := newTestCluster(t, 3, Persistent, Options{}, netsim.Options{})
	ctx := tc.ctx()
	for i := 0; i < 50; i++ {
		done := make(chan error, 1)
		go func(i int) {
			_, err := tc.nodes[0].Write(ctx, "x", []byte(fmt.Sprintf("s%d", i)), OpObserver{})
			done <- err
		}(i)
		f, err := tc.nodes[0].SubmitWrite("x", []byte(fmt.Sprintf("a%d", i)), OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("async write %d: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("sync write %d: %v", i, err)
		}
		byTag := make(map[string]string)
		for _, nd := range tc.nodes {
			tg, v, ok := nd.RegisterState("x")
			if !ok {
				continue
			}
			if prev, seen := byTag[tg.String()]; seen && prev != string(v) {
				t.Fatalf("round %d: tag %v names both %q and %q — duplicate mint", i, tg, prev, v)
			}
			byTag[tg.String()] = string(v)
		}
	}
}
