package cluster_test

// One-round reads (core.Options.OneRoundReads, docs/adr/0015): a read whose
// round-1 majority agrees on one tag returns without the write-back round.
// These tests pin that it leaves nothing behind to crash in, and that the
// same faulty workloads verify with the option off and on. When the fast path
// must NOT be taken (Figure 3's run ρ4) is the step driver's
// TestDriverFigure3OneRoundReads (internal/core).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/metrics"
	"recmem/internal/netsim"
	"recmem/internal/wire"
	"recmem/internal/workload"
)

// waitAdopted polls until every process's view of reg holds val — quiescence:
// no read can observe anything but agreement.
func waitAdopted(t *testing.T, c *cluster.Cluster, reg, val string) {
	t.Helper()
	waitUntil(t, 5*time.Second, "adoption of "+val+" everywhere", func() bool {
		for p := int32(0); p < int32(c.N()); p++ {
			if _, v, _ := c.Node(p).RegisterState(reg); string(v) != val {
				return false
			}
		}
		return true
	})
}

// TestReaderCrashAfterOneRoundRead is TestReaderCrashMidRead's twin: with the
// write-back held exactly as there, a one-round read never sends one, so it
// completes — and the reader's crash right after finds no read pending.
func TestReaderCrashAfterOneRoundRead(t *testing.T) {
	const n = 5
	cfg := testConfig(n, core.Persistent)
	cfg.Node.OneRoundReads = true
	c := newCluster(t, cfg)
	ctx := testCtx(t)
	if _, err := c.Write(ctx, 0, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitAdopted(t, c, "x", "v")
	c.Net().SetFilter(func(e wire.Envelope) bool {
		return !(e.Kind == wire.KindWriteBack && e.From == 2)
	})
	val, rep, err := c.Read(ctx, 2, "x")
	if err != nil || string(val) != "v" {
		t.Fatalf("read with the write-back held = %q, %v", val, err)
	}
	if tr, want := c.MsgTrace(rep.Op), (metrics.OpTrace{Rounds: 1, Sends: n}); tr != want {
		t.Fatalf("read cost %+v, want %+v", tr, want)
	}
	c.Crash(2)
	c.Net().SetFilter(nil)
	if err := c.Recover(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for _, op := range c.History().Operations() {
		if op.Type == history.Read && op.Pending() {
			t.Fatalf("pending read %v: a completed one-round read left state to crash in", op)
		}
	}
	if one, two := c.Node(2).ReadRounds(); one != 1 || two != 0 {
		t.Fatalf("reader's ReadRounds = %d one-round, %d two-round; want 1, 0", one, two)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}

// TestOneRoundReadsDifferentialTorture drives the same seeded faulty
// workloads — message loss and duplication, crash/recover, sequential and
// pipelined clients — with the option off and on: every run must verify both
// ways, and with it on both read paths must actually have been taken.
func TestOneRoundReadsDifferentialTorture(t *testing.T) {
	modes := map[core.AlgorithmKind]atomicity.Mode{
		core.CrashStop:  atomicity.Linearizable,
		core.Transient:  atomicity.Transient,
		core.Persistent: atomicity.Persistent,
	}
	seed := int64(100)
	for _, kind := range []core.AlgorithmKind{core.CrashStop, core.Transient, core.Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			var one, two uint64
			for _, n := range []int{3, 5} {
				for _, async := range []int{0, 8} {
					seed++
					for _, on := range []bool{false, true} {
						cfg := testConfig(n, kind)
						cfg.Node.RetransmitEvery = 2 * time.Millisecond
						cfg.Node.OneRoundReads = on
						cfg.Net = netsim.Options{LossRate: 0.05, DupRate: 0.05, Seed: seed}
						name := fmt.Sprintf("n=%d async=%d seed=%d one-round=%t", n, async, seed, on)
						o, w := tortureOnce(t, name, cfg, modes[kind], seed, async)
						if !on && o != 0 {
							t.Fatalf("%s: %d one-round reads with the option off", name, o)
						}
						if on {
							one, two = one+o, two+w
						}
					}
				}
			}
			t.Logf("with the option on: %d one-round, %d two-round read executions", one, two)
			if one == 0 || two == 0 {
				t.Fatalf("read paths taken with the option on: %d one-round, %d two-round; want both", one, two)
			}
		})
	}
}

// tortureOnce runs one faulty workload on a fresh cluster, verifies its
// history, and returns the cluster-wide ReadRounds.
func tortureOnce(t *testing.T, name string, cfg cluster.Config, mode atomicity.Mode, seed int64, async int) (one, two uint64) {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := testCtx(t)

	// Crashes are bounded by count, not by time: a pipelined operation cut off
	// by a crash stays pending for the rest of the history (its one-shot
	// virtual client never invokes again), and the checker's search is
	// exponential in the pending writes per register — a slow machine must
	// not turn into a long history of them. One process is down at a time,
	// so a majority stays up at n = 3.
	faultCtx, stopFaults := context.WithCancel(ctx)
	defer stopFaults()
	faultsDone := make(chan int, 1)
	go func() {
		crashes := 0
		rng := rand.New(rand.NewSource(seed))
		pause := func() bool {
			select {
			case <-time.After(time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))):
				return true
			case <-faultCtx.Done():
				return false
			}
		}
		for cfg.Algorithm.Recovers() && crashes < 4 && pause() {
			p := int32(rng.Intn(cfg.N))
			if c.Crash(p) {
				crashes++
			}
			pause()
			_ = c.Recover(ctx, p) // RecoverAll below retries whatever this left down
		}
		faultsDone <- crashes
	}()
	// Four registers keep the number of mutually concurrent writes per
	// register — what the checker's search is exponential in — small even at
	// five clients with eight operations in flight each.
	res := workload.Run(ctx, c, workload.AllProcs(cfg.N), 150,
		workload.Mix{ReadFraction: 0.6, Registers: []string{"a", "b", "c", "d"}, Async: async}, seed)
	stopFaults() // the workload is what is being verified; faults past its end add nothing
	crashes := <-faultsDone
	t.Logf("%s: %+v, %d crashes", name, res, crashes)
	if cfg.Algorithm.Recovers() {
		if err := c.RecoverAll(ctx); err != nil {
			t.Fatalf("%s: recover all: %v", name, err)
		}
	}
	if res.Errors != 0 {
		t.Fatalf("%s: workload errors: %+v", name, res)
	}
	start := time.Now()
	if err := c.Check(mode); err != nil {
		t.Fatalf("%s: %v check failed: %v", name, mode, err)
	}
	t.Logf("%s: checked in %v", name, time.Since(start))
	for p := int32(0); p < int32(cfg.N); p++ {
		o, w := c.Node(p).ReadRounds()
		one, two = one+o, two+w
	}
	return one, two
}
