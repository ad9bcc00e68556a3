package remote

// Regression tests for the callback-driven dispatch path (docs/adr/0010):
// the server must not spawn a goroutine per operation, the dispatch
// counters must account for every operation's completion, and an expired
// deadline answers once and still recycles its entry.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
)

// goroutineBudget is the per-connection allowance on top of the pre-burst
// baseline: the dialed connection's own goroutines, the server's read loop
// and reply flusher, and scheduler slack. The point of the bound is the
// asymptote — 1000 in-flight ops must not mean hundreds of awaiting
// goroutines, which is exactly what the pre-callback dispatch path did.
const goroutineBudget = 24

// TestDispatchGoroutineStability pins the tentpole's structural claim: a
// 1k-op pipelined burst leaves the process goroutine count flat, because
// dispatched operations ride completion callbacks instead of parked
// awaiting goroutines.
func TestDispatchGoroutineStability(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	c := mesh.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	regs := make([]*recmem.Register, 4)
	for i := range regs {
		regs[i] = c.Register(fmt.Sprintf("gs%d", i))
	}
	// Warm the path (dial handshake, first dispatchers, pools) before
	// taking the baseline.
	for i := range regs {
		if err := regs[i].Write(ctx, []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()

	const ops = 1000
	val := bytes.Repeat([]byte("g"), 32)
	futs := make([]*recmem.WriteFuture, 0, ops)
	for i := 0; i < ops; i++ {
		f, err := regs[i%len(regs)].SubmitWrite(val)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	// Sample while the burst is in flight: this is where the old
	// goroutine-per-op dispatch exploded.
	inflight := runtime.NumGoroutine()
	for _, f := range futs {
		if err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	settled := runtime.NumGoroutine()

	if inflight > baseline+goroutineBudget {
		t.Errorf("goroutines mid-burst: %d, baseline %d — dispatch is spawning per-op goroutines (budget %d)",
			inflight, baseline, goroutineBudget)
	}
	if settled > baseline+goroutineBudget {
		t.Errorf("goroutines after burst: %d, baseline %d (budget %d)", settled, baseline, goroutineBudget)
	}
}

// TestDispatchStats checks the dispatch counters end to end: every
// submitted op completes through its callback, nothing stays in flight,
// and the happy path never burns a deadline.
func TestDispatchStats(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	c := mesh.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	srv := mesh.servers[0]
	_, before, _ := srv.DispatchStats()

	reg := c.Register("ds0")
	const ops = 128
	futs := make([]*recmem.WriteFuture, 0, ops)
	for i := 0; i < ops; i++ {
		f, err := reg.SubmitWrite([]byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Read(ctx); err != nil {
		t.Fatal(err)
	}

	// All replies are out; in-flight must drain to zero promptly (the
	// callback runs before the reply is enqueued, but entry recycling is
	// what decrements the gauge — poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight, completions, deadlines := srv.DispatchStats()
		if inflight == 0 && completions >= before+ops+1 {
			if deadlines != 0 {
				t.Fatalf("deadline drops on the happy path: %d", deadlines)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatch stats never settled: inflight=%d completions=%d (want 0, ≥%d)",
				inflight, completions, before+ops+1)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitInflight polls until srv's in-flight gauge reads want. The gauge
// drops when the last of an entry's two references — the deadline timer's
// and the completion's — is released and the entry recycles.
func waitInflight(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		inflight, _, _ := srv.DispatchStats()
		if inflight == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d, want %d", inflight, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchDeadlineExpiry drives the expiry path: with no majority the
// write cannot complete, so its deadline answers the client, and the write
// that completes once a majority is back only recycles the entry — it must
// not reply a second time.
func TestDispatchDeadlineExpiry(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	c := mesh.dial(t, 0)
	ctx := testCtx(t)
	srv := mesh.servers[0]
	reg := c.Register("dl")
	if err := reg.Write(ctx, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, srv, 0)
	_, completions, deadlines := srv.DispatchStats()

	mesh.nodes[1].Crash(nil)
	mesh.nodes[2].Crash(nil)
	f, err := reg.SubmitWrite([]byte("stuck"), recmem.WithDeadline(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write without a majority resolved to %v, want DeadlineExceeded", err)
	}
	if inflight, comp, dl := srv.DispatchStats(); dl != deadlines+1 || comp != completions || inflight != 1 {
		t.Fatalf("after expiry: inflight=%d completions=%d deadlines=%d, want 1, %d, %d",
			inflight, comp, dl, completions, deadlines+1)
	}

	for _, nd := range mesh.nodes[1:] {
		if err := nd.Recover(ctx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitInflight(t, srv, 0)
	if _, comp, dl := srv.DispatchStats(); dl != deadlines+1 || comp != completions {
		t.Fatalf("late completion replied again: completions=%d deadlines=%d, want %d, %d",
			comp, dl, completions, deadlines+1)
	}
}

// TestDispatchCloseWithArmedDeadline closes a server while an operation's
// deadline is still armed: nothing panics, exactly one side — the deadline
// or the completion — claims the operation, and its entry is recycled once
// both have run.
func TestDispatchCloseWithArmedDeadline(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	c := mesh.dial(t, 0)
	ctx := testCtx(t)
	srv := mesh.servers[0]
	mesh.nodes[1].Crash(nil)
	mesh.nodes[2].Crash(nil)
	if _, err := c.Register("dl").SubmitWrite([]byte("stuck"), recmem.WithDeadline(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, srv, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Let the deadline fire into the closed connection before a majority
	// returns. This orders the scenario, not the assertions: they hold
	// whichever side claims the operation.
	time.Sleep(200 * time.Millisecond)
	for _, nd := range mesh.nodes[1:] {
		if err := nd.Recover(ctx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitInflight(t, srv, 0)
	if _, comp, dl := srv.DispatchStats(); comp+dl != 1 {
		t.Fatalf("completions=%d deadlines=%d: the operation was claimed %d times, want once", comp, dl, comp+dl)
	}
}

// TestIdleConnectionCostsOneGoroutine: an idle control connection costs the
// server exactly one goroutine, its read loop. Each connection is used once
// — a ping whose reply starts the connection's on-demand flusher — and the
// flusher exits as soon as the reply is written.
func TestIdleConnectionCostsOneGoroutine(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ping, err := encodeRequest(request{Kind: reqPing, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines() // the idle mesh: nothing on demand runs

	const k = 8
	for i := 0; i < k; i++ {
		conn, err := net.Dial("tcp", mesh.controlAddr(0)) // a raw socket: no client goroutines
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, ping); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	// The last reply's flusher may still be returning; give it a second.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got != base+k && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if got != base+k {
		t.Fatalf("%d idle connections grew the goroutine count by %d, want %d", k, got-base, k)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 20 ms. Earlier tests' nodes finish tearing down asynchronously — a node's
// listener returns only after its transport has closed — and one of their
// goroutines still on its way out must not count in the baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for still := time.Now(); time.Since(still) < 20*time.Millisecond && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		}
	}
	return n
}
