package cluster_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"recmem"
	"recmem/internal/atomicity"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/netsim"
	"recmem/internal/stable"
	"recmem/internal/wire"
	"recmem/internal/workload"
)

func testConfig(n int, kind core.AlgorithmKind) cluster.Config {
	return cluster.Config{
		N:         n,
		Algorithm: kind,
		Node:      core.Options{RetransmitEvery: 10 * time.Millisecond},
	}
}

func newCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// verifyDefault checks c's history against the criterion its algorithm
// promises — recmem.CriterionFor, the one table.
func verifyDefault(c *cluster.Cluster) error {
	return recmem.VerifyHistory(c.History(), recmem.CriterionFor(c.Algorithm()))
}

func allKinds() []core.AlgorithmKind {
	return []core.AlgorithmKind{core.CrashStop, core.Transient, core.Persistent, core.Naive}
}

func TestWriteReadAndHistory(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			c := newCluster(t, testConfig(3, kind))
			ctx := testCtx(t)
			rep, err := c.Write(ctx, 0, "x", []byte("v1"))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Op == 0 || rep.Latency <= 0 {
				t.Fatalf("report = %+v", rep)
			}
			val, _, err := c.Read(ctx, 1, "x")
			if err != nil {
				t.Fatal(err)
			}
			if string(val) != "v1" {
				t.Fatalf("read = %q", val)
			}
			h := c.History()
			if err := h.Validate(); err != nil {
				t.Fatalf("history: %v", err)
			}
			ops := h.Operations()
			if len(ops) != 2 || ops[0].Type != history.Write || ops[1].Type != history.Read {
				t.Fatalf("ops = %v", ops)
			}
			if ops[1].Value != "v1" {
				t.Fatalf("read op value = %q", ops[1].Value)
			}
			if err := verifyDefault(c); err != nil {
				t.Fatalf("check: %v", err)
			}
		})
	}
}

func TestHistoryRecordsCrashAndPending(t *testing.T) {
	c := newCluster(t, testConfig(3, core.Persistent))
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 0, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Block all SN queries so the next write hangs, then crash the writer.
	c.Net().SetFilter(func(e wire.Envelope) bool { return e.Kind != wire.KindSNQuery })
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(ctx, 0, "x", []byte("v2"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if !c.Crash(0) {
		t.Fatal("crash failed")
	}
	if err := <-done; !errors.Is(err, core.ErrCrashed) {
		t.Fatalf("interrupted write: %v", err)
	}
	c.Net().SetFilter(nil)
	if err := c.Recover(ctx, 0); err != nil {
		t.Fatal(err)
	}
	h := c.History()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	var sawCrash, sawRecover, sawPending bool
	for _, e := range h {
		switch e.Kind {
		case history.Crash:
			sawCrash = true
		case history.Recover:
			sawRecover = true
		}
	}
	for _, op := range h.Operations() {
		if op.Pending() && op.Value == "v2" {
			sawPending = true
		}
	}
	if !sawCrash || !sawRecover || !sawPending {
		t.Fatalf("history missing events: crash=%v recover=%v pending=%v", sawCrash, sawRecover, sawPending)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestCrashIdempotentAndRecoverErrors(t *testing.T) {
	c := newCluster(t, testConfig(3, core.Persistent))
	ctx := testCtx(t)
	if !c.Crash(1) {
		t.Fatal("crash returned false")
	}
	if c.Crash(1) {
		t.Fatal("second crash returned true")
	}
	if err := c.Recover(ctx, 0); !errors.Is(err, core.ErrNotDown) {
		t.Fatalf("recover healthy: %v", err)
	}
	if err := c.Recover(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// History has exactly one crash and one recovery.
	var crashes, recoveries int
	for _, e := range c.History() {
		switch e.Kind {
		case history.Crash:
			crashes++
		case history.Recover:
			recoveries++
		}
	}
	if crashes != 1 || recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d", crashes, recoveries)
	}
}

func TestPerOpAccounting(t *testing.T) {
	c := newCluster(t, testConfig(5, core.Persistent))
	ctx := testCtx(t)
	rep, err := c.Write(ctx, 0, "x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if cost := c.LogCost(rep.Op); cost.CausalDepth != 2 {
		t.Fatalf("write causal depth = %+v", cost)
	}
	if tr := c.MsgTrace(rep.Op); tr.Rounds != 2 {
		t.Fatalf("write rounds = %+v", tr)
	}
	if c.WriteStats().Count != 1 {
		t.Fatalf("write stats = %+v", c.WriteStats())
	}
	if _, _, err := c.Read(ctx, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if c.ReadStats().Count != 1 {
		t.Fatalf("read stats = %+v", c.ReadStats())
	}
	if c.NetStats().Sent == 0 {
		t.Fatal("no network accounting")
	}
	if c.N() != 5 || c.Algorithm() != core.Persistent {
		t.Fatal("accessors wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{N: 0, Algorithm: core.Persistent}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := cluster.New(cluster.Config{N: 3, Algorithm: core.AlgorithmKind(42)}); err == nil {
		t.Fatal("accepted bad algorithm")
	}
	_, err := cluster.New(cluster.Config{
		N: 2, Algorithm: core.Persistent,
		DiskFactory: func(id int32) (stable.Storage, error) {
			return nil, errors.New("boom")
		},
	})
	if err == nil {
		t.Fatal("accepted failing disk factory")
	}
}

// TestWALDiskCluster: crash all → recover all → read back, on real files.
func TestWALDiskCluster(t *testing.T) {
	cfg := testConfig(3, core.Persistent)
	cfg.DiskBackend, cfg.DiskDir = "wal", t.TempDir()
	c := newCluster(t, cfg)
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 0, "x", []byte("on-disk")); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 3; p++ {
		c.Crash(p)
	}
	for p := int32(0); p < 3; p++ {
		p := p
		go func() { _ = c.Recover(ctx, p) }()
	}
	waitUntil(t, 5*time.Second, "all recovered", func() bool {
		for p := int32(0); p < 3; p++ {
			if !c.Node(p).Up() {
				return false
			}
		}
		return true
	})
	val, _, err := c.Read(ctx, 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "on-disk" {
		t.Fatalf("read = %q", val)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadNoFaults checks every algorithm against its criterion on a
// concurrent fault-free workload.
func TestWorkloadNoFaults(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			c := newCluster(t, testConfig(5, kind))
			ctx := testCtx(t)
			res := workload.Run(ctx, c, workload.AllProcs(5), 20,
				workload.Mix{ReadFraction: 0.5, Registers: []string{"x", "y"}}, 42)
			if res.Errors != 0 || res.Interrupted != 0 {
				t.Fatalf("workload result = %+v", res)
			}
			if res.Writes+res.Reads != 100 {
				t.Fatalf("completed %d ops, want 100", res.Writes+res.Reads)
			}
			if err := verifyDefault(c); err != nil {
				t.Fatalf("check: %v", err)
			}
			// Every algorithm is linearizable when nothing crashes.
			if err := c.Check(atomicity.Linearizable); err != nil {
				t.Fatalf("linearizable check: %v", err)
			}
		})
	}
}

// TestWorkloadUnderCrashRecovery is the main integration test: a mixed
// workload runs while random crashes and recoveries are injected, and the
// resulting history must satisfy the algorithm's criterion.
func TestWorkloadUnderCrashRecovery(t *testing.T) {
	kinds := []core.AlgorithmKind{core.Persistent, core.Naive}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			runFaultyWorkload(t, testConfig(5, kind), atomicity.Persistent, 17)
		})
	}
	t.Run("transient-hardened", func(t *testing.T) {
		cfg := testConfig(5, core.Transient)
		cfg.Node.HardenedTags = true
		runFaultyWorkload(t, cfg, atomicity.Transient, 23)
	})
	t.Run("transient-literal", func(t *testing.T) {
		// The literal Fig. 5 algorithm; the adversarial schedule that breaks
		// it (see scenario tests) is vanishingly unlikely here.
		runFaultyWorkload(t, testConfig(5, core.Transient), atomicity.Transient, 29)
	})
}

func runFaultyWorkload(t *testing.T, cfg cluster.Config, mode atomicity.Mode, seed int64) {
	t.Helper()
	c := newCluster(t, cfg)
	ctx := testCtx(t)

	faultCtx, stopFaults := context.WithTimeout(ctx, 800*time.Millisecond)
	defer stopFaults()
	faultsDone := make(chan int, 1)
	go func() {
		faultsDone <- workload.ClientFaults(faultCtx, workload.Clients(c, workload.AllProcs(cfg.N)),
			workload.ClientFaultOptions{Seed: seed, MeanInterval: 15 * time.Millisecond})
	}()

	res := workload.Run(ctx, c, workload.AllProcs(cfg.N), 30,
		workload.Mix{ReadFraction: 0.4, Registers: []string{"x", "y"}}, seed)
	crashes := <-faultsDone
	if err := c.RecoverAll(ctx); err != nil {
		t.Fatalf("recover all: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("workload errors: %+v", res)
	}
	t.Logf("workload: %+v, crashes injected: %d", res, crashes)
	if err := c.Check(mode); err != nil {
		t.Fatalf("%v check failed: %v", mode, err)
	}
}

// TestCrashStopMinorityFailures: the baseline under its own fault model.
func TestCrashStopMinorityFailures(t *testing.T) {
	c := newCluster(t, testConfig(5, core.CrashStop))
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 0, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.Crash(3)
	c.Crash(4)
	res := workload.Run(ctx, c, []int32{0, 1, 2}, 20, workload.Mix{ReadFraction: 0.5}, 5)
	if res.Errors != 0 || res.Interrupted != 0 {
		t.Fatalf("workload = %+v", res)
	}
	if err := c.Check(atomicity.Linearizable); err != nil {
		t.Fatal(err)
	}
}

// TestLossyClusterWithFaults stacks message loss, duplication and crash
// recovery.
func TestLossyClusterWithFaults(t *testing.T) {
	cfg := testConfig(5, core.Persistent)
	cfg.Node.RetransmitEvery = 2 * time.Millisecond
	cfg.Net = netsim.Options{LossRate: 0.2, DupRate: 0.1, Seed: 3}
	runFaultyWorkload(t, cfg, atomicity.Persistent, 31)
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTraceCaptureAndDump(t *testing.T) {
	cfg := testConfig(3, core.Persistent)
	cfg.TraceCapacity = 512
	c := newCluster(t, cfg)
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 0, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	if err := c.Recover(ctx, 1); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if !c.DumpTrace(&b) {
		t.Fatal("tracing was enabled but DumpTrace reported off")
	}
	out := b.String()
	for _, want := range []string{"send", "recv", "store", "crash", "recover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q events:\n%s", want, out)
		}
	}
	// Tracing off by default.
	c2 := newCluster(t, testConfig(1, core.CrashStop))
	if c2.DumpTrace(&b) {
		t.Fatal("DumpTrace reported on without TraceCapacity")
	}
}
