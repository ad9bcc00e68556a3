package cluster_test

import (
	"context"
	"testing"
	"time"

	"recmem/internal/core"
	"recmem/internal/workload"
)

func TestRegularClusterBasics(t *testing.T) {
	c := newCluster(t, testConfig(5, core.RegularSW))
	ctx := testCtx(t)
	if _, err := c.Write(ctx, core.RegularWriter, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	val, _, err := c.Read(ctx, 3, "x")
	if err != nil || string(val) != "v1" {
		t.Fatalf("read = %q, %v", val, err)
	}
	if err := c.CheckRegular(); err != nil {
		t.Fatalf("regular verification: %v", err)
	}
	if err := c.CheckSafe(); err != nil {
		t.Fatalf("safe verification: %v", err)
	}
}

// TestRegularAsyncSubmittedWrites closes the PR-1 gap: RegularSW writes
// submitted through the batching engine are recorded as one-shot virtual
// clients, and CheckRegular now attributes them to the single writer —
// async histories verify directly against regularity.
func TestRegularAsyncSubmittedWrites(t *testing.T) {
	c := newCluster(t, testConfig(5, core.RegularSW))
	ctx := testCtx(t)
	// Interleave synchronous and submitted writes from the designated
	// writer with reads everywhere.
	if _, err := c.Write(ctx, core.RegularWriter, "x", []byte("s0")); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		futs := make([]*core.Future, 8)
		for j := range futs {
			f, err := c.SubmitWrite(core.RegularWriter, "x", []byte(workload.UniqueValue(1, 0, round*100+j, 0)))
			if err != nil {
				t.Fatal(err)
			}
			futs[j] = f
		}
		for p := int32(1); p < 5; p++ {
			if _, _, err := c.Read(ctx, p, "x"); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range futs {
			if _, err := f.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := c.Read(ctx, 2, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckRegular(); err != nil {
		t.Fatalf("async regular verification: %v", err)
	}
	if err := c.CheckSafe(); err != nil {
		t.Fatalf("async safe verification: %v", err)
	}
	// A non-writer still cannot submit.
	if _, err := c.SubmitWrite(1, "x", []byte("nope")); err == nil {
		t.Fatal("non-writer submission accepted")
	}
}

// TestRegularWorkloadUnderCrashRecovery: a single writer streams values
// while readers read everywhere and random crash/recovery runs; the history
// must be regular.
func TestRegularWorkloadUnderCrashRecovery(t *testing.T) {
	c := newCluster(t, testConfig(5, core.RegularSW))
	ctx := testCtx(t)

	faultCtx, stopFaults := context.WithTimeout(ctx, 600*time.Millisecond)
	defer stopFaults()
	faultsDone := make(chan int, 1)
	go func() {
		faultsDone <- workload.ClientFaults(faultCtx, workload.Clients(c, workload.AllProcs(5)),
			workload.ClientFaultOptions{Seed: 77, MeanInterval: 15 * time.Millisecond})
	}()

	writerDone := make(chan workload.Result, 1)
	go func() {
		writerDone <- workload.Run(ctx, c, []int32{core.RegularWriter}, 60,
			workload.Mix{ReadFraction: 0, Registers: []string{"x"}}, 7)
	}()
	readers := workload.Run(ctx, c, []int32{1, 2, 3, 4}, 40,
		workload.Mix{ReadFraction: 1, Registers: []string{"x"}}, 8)
	writes := <-writerDone
	crashes := <-faultsDone
	if err := c.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	if writes.Errors != 0 || readers.Errors != 0 {
		t.Fatalf("workload errors: writer %+v readers %+v", writes, readers)
	}
	t.Logf("writer %+v, readers %+v, %d crashes", writes, readers, crashes)
	if err := c.CheckRegular(); err != nil {
		t.Fatalf("regularity violated: %v", err)
	}
	if err := c.CheckSafe(); err != nil {
		t.Fatalf("safety violated: %v", err)
	}
}

// TestRegularReadsCheaperThanAtomic: with message gating producing a
// partially propagated write, the regular register's read costs no logs
// while the atomic read pays one.
func TestRegularVsAtomicReadCost(t *testing.T) {
	for _, kind := range []core.AlgorithmKind{core.RegularSW, core.Transient} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newCluster(t, testConfig(5, kind))
			ctx := testCtx(t)
			if _, err := c.Write(ctx, 0, "x", []byte("v")); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 2*time.Second, "full adoption", func() bool {
				for p := int32(0); p < 5; p++ {
					tg, _, _ := c.Node(p).RegisterState("x")
					if tg.IsZero() {
						return false
					}
				}
				return true
			})
			_, rep, err := c.Read(ctx, 1, "x")
			if err != nil {
				t.Fatal(err)
			}
			wantRounds := 2
			if kind == core.RegularSW {
				wantRounds = 1
			}
			if tr := c.MsgTrace(rep.Op); tr.Rounds != wantRounds {
				t.Fatalf("rounds = %d, want %d", tr.Rounds, wantRounds)
			}
			if cost := c.LogCost(rep.Op); cost.Logs != 0 {
				t.Fatalf("quiescent read logged: %+v", cost)
			}
		})
	}
}
