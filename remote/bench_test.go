package remote

// Benchmarks for the remote hot path: one client driving a live 3-process
// emulation over loopback TCP, every node serving the binary control
// protocol — the deployment shape of the paper's measurements, with the
// wire as the instrument under test. All three report allocs/op
// (-benchmem / b.ReportAllocs), so an allocation regression on the frame
// path fails loudly in review. End-to-end claims come from the deployed-shape
// benchmark (bash bench/run.sh), not from these.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
)

// benchValue is the written payload: big enough that a per-frame copy would
// show, small enough to stay in the coalescing sweet spot.
var benchValue = []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")

// benchMesh boots the loopback mesh and one client, outside the timer.
func benchMesh(b *testing.B) (*Client, context.Context) {
	b.Helper()
	mesh := startMesh(b, 3, core.Persistent)
	c := mesh.dial(b, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	b.Cleanup(cancel)
	return c, ctx
}

// BenchmarkRemoteWrite measures the closed-loop write round-trip: one
// operation in flight at a time, so the number is dominated by protocol
// latency, not coalescing.
func BenchmarkRemoteWrite(b *testing.B) {
	c, ctx := benchMesh(b)
	reg := c.Register("bench")
	if err := reg.Write(ctx, benchValue); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.Write(ctx, benchValue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteRead measures the closed-loop read round-trip, value
// payload included (the read reply carries the value back).
func BenchmarkRemoteRead(b *testing.B) {
	c, ctx := benchMesh(b)
	reg := c.Register("bench")
	if err := reg.Write(ctx, benchValue); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Read(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWindow is the pipelined submission window: enough in-flight
// operations for the engine to coalesce quorum rounds and the wire to
// group-commit frames.
const benchWindow = 64

// BenchmarkRemotePipelined measures the steady-state pipelined write path —
// benchWindow operations in flight down one connection — which is where the
// frame pool, the client's write coalescing and the server's reply
// group-commit all engage. This is the allocs/op number the zero-allocation
// acceptance bar is checked against.
func BenchmarkRemotePipelined(b *testing.B) {
	c, ctx := benchMesh(b)
	regs := make([]*recmem.Register, 4)
	for i := range regs {
		regs[i] = c.Register(fmt.Sprintf("bench%d", i))
	}
	if err := regs[0].Write(ctx, benchValue); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	futs := make([]*recmem.WriteFuture, 0, benchWindow)
	flush := func() {
		for _, f := range futs {
			if err := f.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		futs = futs[:0]
	}
	for i := 0; i < b.N; i++ {
		f, err := regs[i%len(regs)].SubmitWrite(benchValue)
		if err != nil {
			b.Fatal(err)
		}
		futs = append(futs, f)
		if len(futs) == benchWindow {
			flush()
		}
	}
	flush()
}
