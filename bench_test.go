// Benchmarks regenerating the paper's evaluation (§V, Figure 6) as
// testing.B benchmarks over the public API. The simulated testbed is
// calibrated to the paper's: δ ≈ 0.1 ms LAN transit (100 Mb/s) and
// λ ≈ 0.2 ms synchronous disk logging.
//
// Expected shape (paper §V-B):
//
//   - BenchmarkFig6aWrite: crash-stop ≈ 4δ ≈ 500 µs; transient adds one
//     causal log (≈ +λ); persistent adds two (≈ +2λ) — the 500/700/900 µs
//     ladder at n = 5, roughly flat in n.
//   - BenchmarkFig6bPayload: linear growth with payload size for all three
//     algorithms, bounded by the 64 KB datagram limit.
//   - BenchmarkReadQuiescent: reads log nowhere in the absence of
//     concurrency, so all algorithms read at ≈ 4δ.
//   - BenchmarkNaiveWriteAblation: the log-every-step adaptation pays ≈ 4λ.
//
// cmd/recmem-bench prints the same sweeps as tables with paper-style
// averaging.
package recmem_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"recmem"
)

// benchCluster builds a LAN-calibrated cluster for benchmarking.
func benchCluster(b *testing.B, n int, algo recmem.Algorithm, opts ...recmem.Option) *recmem.Cluster {
	b.Helper()
	opts = append([]recmem.Option{
		recmem.WithLAN(),
		recmem.WithRetransmitEvery(250 * time.Millisecond),
	}, opts...)
	c, err := recmem.New(n, algo, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func benchWrites(b *testing.B, c *recmem.Cluster, payload []byte) {
	b.Helper()
	ctx := context.Background()
	p := c.Process(0)
	// Warm the protocol paths before timing.
	for i := 0; i < 3; i++ {
		if err := p.Write(ctx, "x", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(ctx, "x", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aWrite is Figure 6 (top): 4-byte writes vs. cluster size for
// the three algorithms.
func BenchmarkFig6aWrite(b *testing.B) {
	algos := map[string]recmem.Algorithm{
		"crash-stop": recmem.CrashStop,
		"transient":  recmem.TransientAtomic,
		"persistent": recmem.PersistentAtomic,
	}
	for name, algo := range algos {
		for _, n := range []int{2, 3, 5, 7, 9} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				c := benchCluster(b, n, algo)
				benchWrites(b, c, []byte{1, 2, 3, 4})
			})
		}
	}
}

// BenchmarkFig6bPayload is Figure 6 (bottom): write latency vs. payload
// size at n = 5.
func BenchmarkFig6bPayload(b *testing.B) {
	algos := map[string]recmem.Algorithm{
		"crash-stop": recmem.CrashStop,
		"transient":  recmem.TransientAtomic,
		"persistent": recmem.PersistentAtomic,
	}
	for name, algo := range algos {
		for _, size := range []int{4, 4 << 10, 16 << 10, 32 << 10, 60 << 10} {
			b.Run(fmt.Sprintf("%s/size=%d", name, size), func(b *testing.B) {
				c := benchCluster(b, 5, algo)
				benchWrites(b, c, make([]byte, size))
			})
		}
	}
}

// BenchmarkReadQuiescent: reads in the absence of concurrent writes do not
// log anywhere ("the execution times would be the same for each algorithm"
// — the paper's reason Figure 6 only shows writes).
func BenchmarkReadQuiescent(b *testing.B) {
	algos := map[string]recmem.Algorithm{
		"crash-stop": recmem.CrashStop,
		"transient":  recmem.TransientAtomic,
		"persistent": recmem.PersistentAtomic,
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			c := benchCluster(b, 5, algo)
			ctx := context.Background()
			if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // full adoption
			p := c.Process(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Read(ctx, "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNaiveWriteAblation: the §I-C log-every-step adaptation pays four
// causal logs per write — the cost the log-optimal algorithms avoid.
func BenchmarkNaiveWriteAblation(b *testing.B) {
	c := benchCluster(b, 5, recmem.NaiveLogging)
	benchWrites(b, c, []byte{1, 2, 3, 4})
}

// BenchmarkHardenedTagsAblation: the hardened-tag variant of the transient
// algorithm (docs/adr/0024) costs nothing on the fast path.
func BenchmarkHardenedTagsAblation(b *testing.B) {
	c := benchCluster(b, 5, recmem.TransientAtomic, recmem.WithHardenedTags())
	benchWrites(b, c, []byte{1, 2, 3, 4})
}

// BenchmarkWriteUnderLoss: fair-lossy channels with 5% loss; the rounds
// retransmit (every 2 ms here), so the tail pays but operations terminate.
func BenchmarkWriteUnderLoss(b *testing.B) {
	c := benchCluster(b, 5, recmem.PersistentAtomic,
		recmem.WithMessageLoss(0.05),
		recmem.WithSeed(42),
		recmem.WithRetransmitEvery(2*time.Millisecond),
	)
	benchWrites(b, c, []byte{1, 2, 3, 4})
}

// BenchmarkRegularRegister: the §VI single-writer regular register — writes
// are one round with one causal log (≈ 2δ + λ), reads one round with no
// logging (≈ 2δ): cheaper than every atomic emulation, which is the trade
// the paper's concluding remarks weigh.
func BenchmarkRegularRegister(b *testing.B) {
	b.Run("write", func(b *testing.B) {
		c := benchCluster(b, 5, recmem.RegularRegister)
		benchWrites(b, c, []byte{1, 2, 3, 4})
	})
	b.Run("read", func(b *testing.B) {
		c := benchCluster(b, 5, recmem.RegularRegister)
		ctx := context.Background()
		if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
			b.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		p := c.Process(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Read(ctx, "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// batchedAlgos are the algorithm kinds compared by the batching benchmarks.
var batchedAlgos = []struct {
	name string
	algo recmem.Algorithm
}{
	{"crash-stop", recmem.CrashStop},
	{"transient", recmem.TransientAtomic},
	{"persistent", recmem.PersistentAtomic},
	{"naive", recmem.NaiveLogging},
}

// benchBurst is the number of operations per timed iteration of the
// batching benchmarks: large enough for coalescing and pipelining to engage,
// small enough that -benchtime=1x stays fast.
const benchBurst = 64

// batchBenchRegs spreads a burst over a few registers so pipelining (not
// just same-register coalescing) contributes.
var batchBenchRegs = []string{"r0", "r1", "r2", "r3"}

// BenchmarkBatchedWrite drives bursts of writes through the asynchronous
// submission API: writes to one register coalesce into shared quorum rounds
// and the four registers' rounds pipeline. Compare with
// BenchmarkUnbatchedWrite — the per-operation time here divides the full
// two-round protocol cost by the effective batch size.
func BenchmarkBatchedWrite(b *testing.B) {
	for _, bc := range batchedAlgos {
		b.Run(bc.name, func(b *testing.B) {
			c := benchCluster(b, 5, bc.algo)
			ctx := context.Background()
			p := c.Process(0)
			payload := []byte{1, 2, 3, 4}
			if err := p.Write(ctx, batchBenchRegs[0], payload); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				futs := make([]*recmem.WriteFuture, benchBurst)
				for j := range futs {
					f, err := p.SubmitWrite(batchBenchRegs[j%len(batchBenchRegs)], payload)
					if err != nil {
						b.Fatal(err)
					}
					futs[j] = f
				}
				for _, f := range futs {
					if err := f.Wait(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportOpsPerSec(b, benchBurst)
		})
	}
}

// BenchmarkUnbatchedWrite is the baseline for BenchmarkBatchedWrite: the
// same burst of writes through the synchronous one-at-a-time API.
func BenchmarkUnbatchedWrite(b *testing.B) {
	for _, bc := range batchedAlgos {
		b.Run(bc.name, func(b *testing.B) {
			c := benchCluster(b, 5, bc.algo)
			ctx := context.Background()
			p := c.Process(0)
			payload := []byte{1, 2, 3, 4}
			if err := p.Write(ctx, batchBenchRegs[0], payload); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < benchBurst; j++ {
					if err := p.Write(ctx, batchBenchRegs[j%len(batchBenchRegs)], payload); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportOpsPerSec(b, benchBurst)
		})
	}
}

// BenchmarkBatchedRead: bursts of submitted reads share quorum rounds.
func BenchmarkBatchedRead(b *testing.B) {
	for _, bc := range batchedAlgos {
		b.Run(bc.name, func(b *testing.B) {
			c := benchCluster(b, 5, bc.algo)
			ctx := context.Background()
			if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // full adoption
			p := c.Process(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				futs := make([]*recmem.ReadFuture, benchBurst)
				for j := range futs {
					f, err := p.SubmitRead("x")
					if err != nil {
						b.Fatal(err)
					}
					futs[j] = f
				}
				for _, f := range futs {
					if _, err := f.Wait(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportOpsPerSec(b, benchBurst)
		})
	}
}

// reportOpsPerSec normalizes a burst benchmark to operations per second.
func reportOpsPerSec(b *testing.B, perIter int) {
	b.Helper()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(perIter*b.N)/b.Elapsed().Seconds(), "ops/s")
	}
}

// BenchmarkRecovery measures the recovery procedure (crash + recover cycle)
// of the two crash-recovery algorithms: transient pays one local log;
// persistent pays a write-back round per register.
func BenchmarkRecovery(b *testing.B) {
	algos := map[string]recmem.Algorithm{
		"transient":  recmem.TransientAtomic,
		"persistent": recmem.PersistentAtomic,
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			c := benchCluster(b, 5, algo)
			ctx := context.Background()
			if err := c.Process(0).Write(ctx, "x", []byte("v")); err != nil {
				b.Fatal(err)
			}
			p := c.Process(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Crash(ctx)
				if err := p.Recover(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
