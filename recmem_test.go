package recmem_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newTestCluster(t *testing.T, n int, algo recmem.Algorithm, opts ...recmem.Option) *recmem.Cluster {
	t.Helper()
	opts = append([]recmem.Option{recmem.WithRetransmitEvery(10 * time.Millisecond)}, opts...)
	c, err := recmem.New(n, algo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func allAlgorithms() []recmem.Algorithm {
	return []recmem.Algorithm{
		recmem.CrashStop, recmem.TransientAtomic, recmem.PersistentAtomic, recmem.NaiveLogging,
	}
}

func TestQuickstartFlow(t *testing.T) {
	for _, algo := range allAlgorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			c := newTestCluster(t, 5, algo)
			ctx := testCtx(t)
			if err := c.Process(0).Write(ctx, "x", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := c.Process(1).Read(ctx, "x")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("read = %q", got)
			}
			if err := c.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

func TestCrashRecoverFlow(t *testing.T) {
	c := newTestCluster(t, 3, recmem.PersistentAtomic)
	ctx := testCtx(t)
	p0 := c.Process(0)
	if err := p0.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := p0.Crash(ctx); err != nil {
		t.Fatalf("crash failed: %v", err)
	}
	if p0.Up() {
		t.Fatal("up after crash")
	}
	if err := p0.Write(ctx, "x", []byte("w")); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("write while down: %v", err)
	}
	if err := p0.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if !p0.Up() {
		t.Fatal("not up after recover")
	}
	got, err := p0.Read(ctx, "x")
	if err != nil || string(got) != "v" {
		t.Fatalf("read after recover = %q, %v", got, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashStopCannotRecover(t *testing.T) {
	c := newTestCluster(t, 3, recmem.CrashStop)
	_ = c.Process(0).Crash(testCtx(t))
	if err := c.Process(0).Recover(testCtx(t)); !errors.Is(err, recmem.ErrCannotRecover) {
		t.Fatalf("recover: %v", err)
	}
}

func TestCostAccounting(t *testing.T) {
	c := newTestCluster(t, 5, recmem.PersistentAtomic)
	ctx := testCtx(t)
	var op recmem.OpID
	if err := c.Process(0).Register("x").Write(ctx, []byte("v"), recmem.WithCost(&op)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cost := c.CostOf(op)
	if cost.CausalLogs != 2 {
		t.Fatalf("persistent write causal logs = %+v, want 2", cost)
	}
	if cost.TotalLogs < 1+3 { // writer pre-log + majority adoptions
		t.Fatalf("total logs = %+v", cost)
	}
	var rop recmem.OpID
	if _, err := c.Process(1).Register("x").Read(ctx, recmem.WithCost(&rop)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if cost := c.CostOf(rop); cost.CausalLogs != 0 {
		t.Fatalf("quiescent read causal logs = %+v, want 0", cost)
	}
}

func TestLatencyStats(t *testing.T) {
	c := newTestCluster(t, 3, recmem.TransientAtomic)
	ctx := testCtx(t)
	for i := 0; i < 5; i++ {
		if err := c.Process(0).Write(ctx, "x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Process(1).Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	ws := c.WriteLatency()
	if ws.Count != 5 || ws.Mean <= 0 || ws.Max < ws.Min {
		t.Fatalf("write stats = %+v", ws)
	}
	if rs := c.ReadLatency(); rs.Count != 1 {
		t.Fatalf("read stats = %+v", rs)
	}
}

func TestVerifyCriteria(t *testing.T) {
	c := newTestCluster(t, 3, recmem.PersistentAtomic)
	ctx := testCtx(t)
	if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, cr := range []recmem.Criterion{
		recmem.Linearizability, recmem.PersistentAtomicity, recmem.TransientAtomicity,
	} {
		if err := c.VerifyCriterion(cr); err != nil {
			t.Fatalf("%v: %v", cr, err)
		}
	}
	if err := c.VerifyCriterion(recmem.Criterion(99)); err == nil {
		t.Fatal("accepted unknown criterion")
	}
	if got := c.DefaultCriterion(); got != recmem.PersistentAtomicity {
		t.Fatalf("default criterion = %v", got)
	}
}

// TestDefaultCriteria is the algorithm table test: every algorithm maps,
// through the one kind-to-criterion table, to the criterion Cluster.Verify
// checks.
func TestDefaultCriteria(t *testing.T) {
	want := map[recmem.Algorithm]recmem.Criterion{
		recmem.CrashStop:        recmem.Linearizability,
		recmem.TransientAtomic:  recmem.TransientAtomicity,
		recmem.PersistentAtomic: recmem.PersistentAtomicity,
		recmem.NaiveLogging:     recmem.PersistentAtomicity,
		recmem.RegularRegister:  recmem.Regularity,
	}
	for algo, cr := range want {
		c := newTestCluster(t, 1, algo)
		if got := c.DefaultCriterion(); got != cr {
			t.Fatalf("%v: criterion %v, want %v", algo, got, cr)
		}
		kind, err := core.ParseAlgorithm(algo.String())
		if err != nil {
			t.Fatal(err)
		}
		if got := recmem.CriterionFor(kind); got != cr {
			t.Fatalf("%v: CriterionFor(%v) = %v, want %v", algo, kind, got, cr)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := recmem.New(3, recmem.Algorithm(77)); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	if _, err := recmem.New(0, recmem.PersistentAtomic); err == nil {
		t.Fatal("accepted n=0")
	}
}

func TestProcessPanicsOutOfRange(t *testing.T) {
	c := newTestCluster(t, 2, recmem.PersistentAtomic)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range process")
		}
	}()
	c.Process(7)
}

// TestStorageOptions: crash all → recover all → read back on real files,
// under both presets of the log engine.
func TestStorageOptions(t *testing.T) {
	for name, storage := range map[string]func(string) recmem.Option{
		"wal": recmem.WithWALStorage, "sharded": recmem.WithShardedStorage,
	} {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 3, recmem.PersistentAtomic, storage(t.TempDir()))
			ctx := testCtx(t)
			if err := c.Process(0).Write(ctx, "x", []byte("persisted")); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 3; p++ {
				_ = c.Process(p).Crash(ctx)
			}
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					if err := c.Process(p).Recover(ctx); err != nil {
						t.Errorf("recover %d: %v", p, err)
					}
				}(p)
			}
			wg.Wait()
			got, err := c.Process(2).Read(ctx, "x")
			if err != nil || string(got) != "persisted" {
				t.Fatalf("read = %q, %v", got, err)
			}
			if err := c.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLossyNetworkOptions(t *testing.T) {
	c := newTestCluster(t, 5, recmem.TransientAtomic,
		recmem.WithMessageLoss(0.25),
		recmem.WithDuplication(0.1),
		recmem.WithSeed(9),
		recmem.WithRetransmitEvery(2*time.Millisecond),
	)
	ctx := testCtx(t)
	for i := 0; i < 10; i++ {
		val := []byte(fmt.Sprintf("v%d", i))
		if err := c.Process(i%5).Write(ctx, "x", val); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBlocksThenHeals(t *testing.T) {
	c := newTestCluster(t, 3, recmem.PersistentAtomic)
	ctx := testCtx(t)
	c.Partition(0)
	short, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
	defer cancel()
	if err := c.Process(0).Write(short, "x", []byte("v")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned write: %v", err)
	}
	c.Heal(0)
	if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
		t.Fatalf("healed write: %v", err)
	}
}

// TestScriptedOverlappingWrite reproduces the Figure 1 anomaly through the
// public API: the transient algorithm admits a run where, after a crashed
// write, a read returns the old value and a later read returns the crashed
// write's value.
func TestScriptedOverlappingWrite(t *testing.T) {
	c := newTestCluster(t, 5, recmem.TransientAtomic)
	ctx := testCtx(t)
	if err := c.Process(0).Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let all replicas adopt v1

	// W(v2) reaches only process 3, then the writer crashes.
	c.RestrictAcks(0, 0, 1, 2)
	c.RestrictWritePropagation(0, 3)
	done := make(chan error, 1)
	go func() { done <- c.Process(0).Write(ctx, "x", []byte("v2")) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Wait until p3 has seen v2 (observable via a read quorumed on p3).
		if time.Now().After(deadline) {
			t.Fatal("v2 never reached p3")
		}
		c.RestrictAcks(4, 3, 4, 2)
		v, err := c.Process(4).Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if string(v) == "v2" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = c.Process(0).Crash(ctx)
	if err := <-done; !errors.Is(err, recmem.ErrCrashed) {
		t.Fatalf("crashed write returned %v", err)
	}
	c.ClearNetworkScript()
	if err := c.Process(0).Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("transient verification: %v", err)
	}
}

func TestNetworkAndDiskOptions(t *testing.T) {
	// A cluster with explicit latency knobs: a write must take at least the
	// configured round trips plus logging on the critical path.
	c := newTestCluster(t, 3, recmem.PersistentAtomic,
		recmem.WithNetwork(300*time.Microsecond, 50*time.Microsecond, 10e6),
		recmem.WithDisk(500*time.Microsecond, 0),
	)
	ctx := testCtx(t)
	start := time.Now()
	if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// 2 round trips (4 x 300µs) + writer log (500µs) + replica log (500µs).
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("write finished in %v, faster than the configured latencies allow", el)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWithLANLadder(t *testing.T) {
	// WithLAN reproduces the calibrated testbed: a persistent write lands in
	// the high hundreds of microseconds, not milliseconds and not tens of
	// microseconds. Generous bounds keep this robust on noisy hosts.
	c := newTestCluster(t, 5, recmem.PersistentAtomic, recmem.WithLAN())
	ctx := testCtx(t)
	for i := 0; i < 5; i++ {
		if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mean := c.WriteLatency().Mean
	if mean < 500*time.Microsecond || mean > 50*time.Millisecond {
		t.Fatalf("LAN-profile persistent write mean = %v", mean)
	}
}
