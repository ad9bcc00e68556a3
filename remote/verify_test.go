package remote

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"recmem"
	"recmem/internal/atomicity"
	"recmem/internal/core"
)

// TestExpiredOpDeadline is the regression for the opDeadlineUS clamp: an
// already-expired per-op deadline must ship the minimum representable bound
// (1µs), never 0 — the wire's "no deadline" — which silently converted a
// dead operation into an unbounded one.
func TestExpiredOpDeadline(t *testing.T) {
	if got := opDeadlineUS(recmem.OpOptions{Deadline: -time.Second}); got != 1 {
		t.Fatalf("opDeadlineUS(expired) = %d, want 1", got)
	}
	if got := opDeadlineUS(recmem.OpOptions{Deadline: -time.Nanosecond}); got != 1 {
		t.Fatalf("opDeadlineUS(-1ns) = %d, want 1", got)
	}

	// End to end: the operation fails with DeadlineExceeded promptly even
	// when the mesh could not serve it at all (majority down), instead of
	// waiting out the server's 30s default.
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)
	c := mesh.dial(t, 0)
	mesh.nodes[1].Crash(nil)
	mesh.nodes[2].Crash(nil)
	start := time.Now()
	err := c.Register("x").Write(ctx, []byte("v"), recmem.WithDeadline(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline write = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("expired deadline took %v", elapsed)
	}
}

// TestVersionSkewRejectedCleanly plays retired-version clients (the
// original v1 and the pre-epoch v2) against the current server: per ADR
// 0003 the server answers each frame with an error response carrying the
// request id — it does not drop the connection — so old clients fail
// op-by-op and the connection stays usable for current-version traffic.
func TestVersionSkewRejectedCleanly(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	for _, old := range []byte{1, 2} {
		conn, err := net.Dial("tcp", mesh.controlAddr(0))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		body, err := encodeRequest(request{Kind: reqPing, ID: 77})
		if err != nil {
			t.Fatal(err)
		}
		body[0] = old // downgrade the version byte to a retired protocol
		if err := writeFrame(conn, body); err != nil {
			t.Fatal(err)
		}
		respBody, err := readFrame(conn)
		if err != nil {
			t.Fatalf("v%d: server dropped the connection instead of answering: %v", old, err)
		}
		resp, err := decodeResponse(respBody)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != 77 || resp.Code != codeBadRequest {
			t.Fatalf("v%d skew response = %+v, want id 77 code bad-request", old, resp)
		}
		if !strings.Contains(resp.Msg, "version") {
			t.Fatalf("v%d skew message %q does not name the version", old, resp.Msg)
		}

		// The connection still serves current-version requests.
		body, err = encodeRequest(request{Kind: reqPing, ID: 78})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, body); err != nil {
			t.Fatal(err)
		}
		respBody, err = readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = decodeResponse(respBody)
		if err != nil || resp.ID != 78 || resp.Code != 0 {
			t.Fatalf("v%d post-skew ping = %+v, %v", old, resp, err)
		}
	}
}

// TestRemoteEpochWitness: write and read replies carry the node's
// incarnation epoch over the wire (protocol v3), the handshake Info reports
// it, and it advances across a crash+recover.
func TestRemoteEpochWitness(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)
	c := mesh.dial(t, 0)

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch == 0 {
		t.Fatal("handshake Info reports no incarnation epoch")
	}

	var wep, rep uint64
	if err := c.Register("x").Write(ctx, []byte("v"), recmem.WithEpoch(&wep)); err != nil {
		t.Fatal(err)
	}
	if wep != info.Epoch {
		t.Fatalf("write epoch = %d, want the node's %d", wep, info.Epoch)
	}
	if _, err := c.Register("x").Read(ctx, recmem.WithEpoch(&rep)); err != nil {
		t.Fatal(err)
	}
	if rep != wep {
		t.Fatalf("read epoch = %d, want %d", rep, wep)
	}

	if err := c.Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	var after uint64
	if err := c.Register("x").Write(ctx, []byte("v2"), recmem.WithEpoch(&after)); err != nil {
		t.Fatal(err)
	}
	if after <= wep {
		t.Fatalf("post-recovery epoch %d did not advance past %d", after, wep)
	}

	// A failed operation zeroes the capture instead of leaving a stale one.
	err = c.Register("x").Write(ctx, []byte("late"),
		recmem.WithEpoch(&after), recmem.WithDeadline(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired write = %v", err)
	}
	if after != 0 {
		t.Fatalf("failed write left stale epoch %d", after)
	}
}

// slowServer is a protocol endpoint that holds every reply until released —
// the "slow server" for the Wait-cancellation tests.
type slowServer struct {
	ln      net.Listener
	mu      sync.Mutex
	held    []response
	release chan struct{}
}

func startSlowServer(t *testing.T) *slowServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &slowServer{ln: ln, release: make(chan struct{})}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			body, err := readFrame(conn)
			if err != nil {
				return
			}
			req, err := decodeRequest(body)
			if err != nil {
				return
			}
			if req.Kind == reqInfo {
				// Answer the dial-time version/Info handshake immediately;
				// only operations are held.
				body, err := encodeResponse(response{Kind: reqInfo, ID: req.ID})
				if err == nil {
					_ = writeFrame(conn, body)
				}
				continue
			}
			s.mu.Lock()
			s.held = append(s.held, response{Kind: req.Kind, ID: req.ID})
			s.mu.Unlock()
			go func() {
				<-s.release
				s.mu.Lock()
				defer s.mu.Unlock()
				for _, r := range s.held {
					body, err := encodeResponse(r)
					if err != nil {
						continue
					}
					_ = writeFrame(conn, body)
				}
				s.held = nil
			}()
		}
	}()
	return s
}

// TestWaitCancelDeregisters is the regression for the pending-call leak: a
// Wait abandoned by context cancellation must deregister the call — the
// entry (and its request id) must not linger until a reply that may never
// come — and the late reply, when it does arrive, is discarded without
// disturbing the connection.
func TestWaitCancelDeregisters(t *testing.T) {
	srv := startSlowServer(t)
	c, err := Dial(srv.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ping against the slow server = %v", err)
	}

	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending calls linger after cancellation", n)
	}

	// Release the held reply: the client must discard it and keep working.
	close(srv.release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := c.Ping(ctx2); err != nil {
		t.Fatalf("ping after late reply = %v", err)
	}
}

// TestWaitCancelSettlesAllWaiters: a second waiter (e.g. a Recording
// observer on the future) is released with the cancellation error instead
// of hanging on a call nobody will complete.
func TestWaitCancelSettlesAllWaiters(t *testing.T) {
	srv := startSlowServer(t)
	defer close(srv.release)
	c, err := Dial(srv.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fut, err := c.send(request{Kind: reqPing})
	if err != nil {
		t.Fatal(err)
	}
	observed := make(chan error, 1)
	go func() {
		_, err := fut.Wait(context.Background())
		observed <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled wait = %v", err)
	}
	select {
	case err := <-observed:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("observer saw %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("observer still hanging after the call was deregistered")
	}
}

// TestRemoteTagWitness: write and read replies carry the adopted tag over
// the wire — the same witness on both sides of the mesh.
func TestRemoteTagWitness(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)
	c0, c1 := mesh.dial(t, 0), mesh.dial(t, 1)

	var wwit, rwit recmem.Tag
	if err := c0.Register("x").Write(ctx, []byte("v"), recmem.WithWitness(&wwit)); err != nil {
		t.Fatal(err)
	}
	if wwit.IsZero() {
		t.Fatal("remote write reported no tag witness")
	}
	got, err := c1.Register("x").Read(ctx, recmem.WithWitness(&rwit))
	if err != nil || string(got) != "v" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if rwit != wwit {
		t.Fatalf("read witness %v, want the write's %v", rwit, wwit)
	}

	// Async futures report the witness too.
	f, err := c0.Register("x").SubmitWrite([]byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// A read of ⊥ has no witness.
	var none recmem.Tag
	if _, err := c1.Register("untouched").Read(ctx, recmem.WithWitness(&none)); err != nil {
		t.Fatal(err)
	}
	if !none.IsZero() {
		t.Fatalf("⊥ read reported witness %v", none)
	}
}

// TestRecordedRemoteMeshVerifies drives a crash/recovery workload against a
// live (honest) mesh through Recording wrappers and verifies the merged
// history — the tentpole flow of docs/adr/0004, in miniature.
func TestRecordedRemoteMeshVerifies(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)
	g := recmem.NewRecordingGroup()
	clients := make([]recmem.Client, 3)
	for i := range clients {
		clients[i] = g.Wrap(mesh.dial(t, i))
	}

	for round := 0; round < 3; round++ {
		for i, c := range clients {
			val := []byte{byte('a' + round), byte('0' + i)}
			if err := c.Register("x").Write(ctx, val); err != nil {
				t.Fatal(err)
			}
			if _, err := clients[(i+1)%3].Register("x").Read(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := clients[2].Crash(ctx); err != nil {
			t.Fatal(err)
		}
		// Operations against the downed node are recorded conservatively.
		if _, err := clients[2].Register("x").Read(ctx); !errors.Is(err, recmem.ErrDown) {
			t.Fatalf("read on downed node = %v", err)
		}
		if err := clients[0].Register("x").Write(ctx, []byte("while-down")); err != nil {
			t.Fatal(err)
		}
		if err := clients[2].Recover(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Verify(recmem.PersistentAtomicity); err != nil {
		t.Fatalf("honest mesh failed verification: %v", err)
	}
}

// TestStaleServerFailsVerification is the acceptance property: a mesh in
// which one node serves stale reads (frozen value + stale tag witness) must
// fail the merged-history check, while the same workload against honest
// nodes passes. The emulation beneath the lying control port is untouched —
// only the verification pipeline can tell the difference.
func TestStaleServerFailsVerification(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	// Re-serve node 1's control port through a dishonest server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stale := Serve(ln, mesh.nodes[1], ServerOptions{OpTimeout: 30 * time.Second, StaleReads: true})
	t.Cleanup(func() { stale.Close() })

	ctx := testCtx(t)
	g := recmem.NewRecordingGroup()
	c0 := g.Wrap(mesh.dial(t, 0))
	cStale, err := Dial(stale.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cStale.Close() })
	c1 := g.Wrap(cStale)
	c2 := g.Wrap(mesh.dial(t, 2))

	// Pin the stale node's view, then move the register past it.
	if err := c0.Register("x").Write(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, err := c1.Register("x").Read(ctx); err != nil || string(v) != "v1" {
		t.Fatalf("pin read = %q, %v", v, err)
	}
	if err := c0.Register("x").Write(ctx, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, err := c2.Register("x").Read(ctx); err != nil || string(v) != "v2" {
		t.Fatalf("honest read = %q, %v", v, err)
	}
	// The stale node still serves v1 — a completed read of a superseded
	// value, well after W(v2) completed.
	if v, err := c1.Register("x").Read(ctx); err != nil || string(v) != "v1" {
		t.Fatalf("stale read = %q, %v (stale server should freeze v1)", v, err)
	}

	err = g.Verify(recmem.PersistentAtomicity)
	if err == nil {
		t.Fatal("verification passed against a stale-serving node")
	}
	var v *atomicity.Violation
	if !errors.As(err, &v) {
		t.Fatalf("verification error = %v, want an atomicity violation", err)
	}
}

// TestFrozenEpochFailsVerification is the negative control for the epoch
// inference (docs/adr/0006): a node whose control server freezes its
// reported incarnation epoch (ServerOptions.FreezeEpoch) — hiding a real
// crash+recover from the recorders — must fail the merged-history
// verification with an epoch violation, while the same workload against an
// honest server passes (TestRecordedRemoteMeshVerifies).
func TestFrozenEpochFailsVerification(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	// Re-serve node 1's control port through a dishonest server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frozen := Serve(ln, mesh.nodes[1], ServerOptions{OpTimeout: 30 * time.Second, FreezeEpoch: true})
	t.Cleanup(func() { frozen.Close() })

	ctx := testCtx(t)
	g := recmem.NewRecordingGroup()
	c0 := g.Wrap(mesh.dial(t, 0))
	cFrozen, err := Dial(frozen.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cFrozen.Close() })
	c1 := g.Wrap(cFrozen)

	if err := c0.Register("x").Write(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register("x").Read(ctx); err != nil {
		t.Fatal(err)
	}
	// A REAL crash+recover on node 1: its incarnation epoch advances, but
	// the frozen server keeps reporting the old one.
	if err := c1.Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c1.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register("x").Read(ctx); err != nil {
		t.Fatal(err)
	}

	err = g.Verify(recmem.PersistentAtomicity)
	if err == nil {
		t.Fatal("verification passed against a frozen-epoch node")
	}
	if !strings.Contains(err.Error(), "epoch violation") {
		t.Fatalf("verification error = %v, want an epoch violation", err)
	}
}

// TestFailedOpZeroesWitness: a failed operation must leave the WithWitness
// capture zero, not the previous operation's tag — the simulator backend
// already guarantees this; the remote backend must match (regression). The
// failing operations carry an already-expired deadline, which is an admission
// rejection at the client: no frame is sent, so no reply can race the expired
// deadline into a success (the old flake, `expired write = <nil>`) and the
// rejected write never takes effect.
func TestFailedOpZeroesWitness(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)
	c := mesh.dial(t, 0)
	x := c.Register("x")

	var wit recmem.Tag
	var ep uint64
	if err := x.Write(ctx, []byte("v"), recmem.WithWitness(&wit), recmem.WithEpoch(&ep)); err != nil {
		t.Fatal(err)
	}
	if wit.IsZero() || ep == 0 {
		t.Fatalf("successful write reported witness %v, epoch %d", wit, ep)
	}
	// replied counts the operations the node has answered, either way; both
	// counters move before the reply is queued.
	replied := func() uint64 {
		_, completions, deadlines := mesh.servers[0].DispatchStats()
		return completions + deadlines
	}
	before := replied()

	// Reuse the same capture variables on operations that must fail.
	err := x.Write(ctx, []byte("late"),
		recmem.WithWitness(&wit), recmem.WithEpoch(&ep), recmem.WithDeadline(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired write = %v", err)
	}
	if !wit.IsZero() || ep != 0 {
		t.Fatalf("failed write left stale witness %v, epoch %d", wit, ep)
	}
	if _, err := x.SubmitWrite([]byte("late"), recmem.WithDeadline(-time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submitted write = %v", err)
	}

	val, err := x.Read(ctx, recmem.WithWitness(&wit), recmem.WithEpoch(&ep))
	if err != nil || string(val) != "v" {
		t.Fatalf("read after the rejected writes = %q, %v; want \"v\" (a rejected write must never execute)", val, err)
	}
	if wit.IsZero() || ep == 0 {
		t.Fatalf("successful read reported witness %v, epoch %d", wit, ep)
	}
	val, err = x.Read(ctx, recmem.WithWitness(&wit), recmem.WithEpoch(&ep), recmem.WithDeadline(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) || val != nil {
		t.Fatalf("expired read = %q, %v", val, err)
	}
	if !wit.IsZero() || ep != 0 {
		t.Fatalf("failed read left stale witness %v, epoch %d", wit, ep)
	}
	if _, err := x.SubmitRead(recmem.WithDeadline(-time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submitted read = %v", err)
	}
	// A caller context that is already done is refused the same way.
	done, cancel := context.WithCancel(ctx)
	cancel()
	if err := x.Write(done, []byte("late"), recmem.WithWitness(&wit)); !errors.Is(err, context.Canceled) {
		t.Fatalf("write under a cancelled context = %v", err)
	}

	// Only the one successful read reached the node since the first write.
	if got := replied() - before; got != 1 {
		t.Fatalf("node answered %d operations since the first write, want 1: a rejected operation was sent", got)
	}
}

// TestStalledClientDoesNotWedgeServer: a client that pipelines requests but
// never reads responses wedges the connection's writer (full response
// channel, blocked socket write). When the connection then dies, the read
// loop — blocked in reply() — must be released too, or the connection
// goroutines leak and Server.Close hangs forever (regression: reply did not
// select on the writer's exit).
func TestStalledClientDoesNotWedgeServer(t *testing.T) {
	mesh := startMesh(t, 1, core.CrashStop)
	srv := mesh.servers[0]
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Flood pings without ever reading a response until the server stops
	// reading (its reply path is wedged) and our writes block.
	body, err := encodeRequest(request{Kind: reqPing, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 1_000_000; i++ {
		if err := writeFrame(conn, body); err != nil {
			break // write deadline: both directions are full, server is wedged
		}
	}
	_ = conn.Close()

	done := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung on a wedged connection")
	}
}
