package remote

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
)

// fastRedial is the reconnect tuning the tests use: tight backoff so a
// restart round-trips in milliseconds.
func fastRedial() Options {
	return Options{RedialMin: 2 * time.Millisecond, RedialMax: 20 * time.Millisecond}
}

// dialOpts connects a client to node i's control port with explicit options.
func (m *testMesh) dialOpts(t *testing.T, i int, opts Options) *Client {
	t.Helper()
	c, err := Dial(m.controlAddr(i), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// restartServer re-listens on server i's old address and serves the same
// node — the in-process stand-in for a node process coming back after a
// kill. Binding a just-freed port can race the OS; retry briefly.
func (m *testMesh) restartServer(t *testing.T, i int) {
	t.Helper()
	addr := m.servers[i].Addr()
	m.servers[i].Close()
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv := Serve(ln, m.nodes[i], ServerOptions{OpTimeout: 30 * time.Second})
	t.Cleanup(func() { srv.Close() })
	m.servers[i] = srv
}

// writeWhenBack retries a synchronous write while the client reports the
// connection down (ErrDown) or cut (ErrCrashed), proving the SAME handle
// succeeds after the redial without the caller re-dialing.
func writeWhenBack(ctx context.Context, t *testing.T, reg *recmem.Register, val string) {
	t.Helper()
	for {
		err := reg.Write(ctx, []byte(val))
		if err == nil {
			return
		}
		if !errors.Is(err, recmem.ErrDown) && !errors.Is(err, recmem.ErrCrashed) {
			t.Fatalf("write waiting for reconnect: %v", err)
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			t.Fatalf("reconnect never happened: %v", ctx.Err())
		}
	}
}

// TestReconnectAfterServerRestart is the conformance case for the reconnect
// layer: a server restart mid-stream resolves the pending operations with
// ErrCrashed (unknown fate), new operations fail fast with ErrDown during
// the outage, and once the server is back the background redialer — not the
// caller — re-establishes the connection and fresh operations on the same
// handles succeed. OnStateChange observes the transitions.
func TestReconnectAfterServerRestart(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)

	var stMu sync.Mutex
	var states []ConnState
	opts := fastRedial()
	opts.OnStateChange = func(s ConnState, cause error) {
		stMu.Lock()
		states = append(states, s)
		stMu.Unlock()
	}
	c := mesh.dialOpts(t, 0, opts)
	x := c.Register("x")
	if err := x.Write(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Stall the mesh so submitted writes hang in flight, then cut the
	// connection under them.
	mesh.nodes[1].Crash(nil)
	mesh.nodes[2].Crash(nil)
	var futs []*recmem.WriteFuture
	for i := 0; i < 4; i++ {
		f, err := x.SubmitWrite([]byte("mid-stream"))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	mesh.restartServer(t, 0)
	for i, f := range futs {
		if err := f.Wait(ctx); !errors.Is(err, recmem.ErrCrashed) {
			t.Fatalf("pending write %d across restart: %v (want ErrCrashed)", i, err)
		}
	}

	// Restore the quorum; the redialer brings the same client back.
	if err := mesh.nodes[1].Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := mesh.nodes[2].Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	writeWhenBack(ctx, t, x, "after-restart")
	got, err := c.Register("x").Read(ctx)
	if err != nil || string(got) != "after-restart" {
		t.Fatalf("read after reconnect = %q, %v", got, err)
	}

	stMu.Lock()
	defer stMu.Unlock()
	if len(states) < 2 || states[0] != StateReconnecting {
		t.Fatalf("state transitions = %v, want [reconnecting connected ...]", states)
	}
	for _, s := range states[1:] {
		if s == StateConnected {
			return
		}
	}
	t.Fatalf("no connected transition observed: %v", states)
}

// TestRedialGivesUp: with a bounded attempt budget and the server gone for
// good, the redialer surfaces a terminal error wrapping ErrRedialExhausted,
// and every later operation returns it.
func TestRedialGivesUp(t *testing.T) {
	mesh := startMesh(t, 1, core.Persistent)
	opts := fastRedial()
	opts.RedialAttempts = 3
	var terminal flagBool
	opts.OnStateChange = func(s ConnState, cause error) {
		if s == StateTerminal {
			terminal.set()
		}
	}
	c := mesh.dialOpts(t, 0, opts)
	ctx := testCtx(t)
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	mesh.servers[0].Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Ping(ctx)
		if errors.Is(err, ErrRedialExhausted) {
			break
		}
		if err == nil || (!errors.Is(err, recmem.ErrDown) && !errors.Is(err, recmem.ErrCrashed)) {
			t.Fatalf("ping while giving up = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("redialer never gave up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !terminal.get() {
		t.Fatal("OnStateChange never reported StateTerminal")
	}
	// A terminal client still closes cleanly (and idempotently).
	if err := c.Close(); err != nil {
		t.Fatalf("close of a terminal client: %v", err)
	}
}

// flagBool is a tiny mutex-guarded bool for callback assertions.
type flagBool struct {
	mu sync.Mutex
	v  bool
}

func (b *flagBool) set() { b.mu.Lock(); b.v = true; b.mu.Unlock() }
func (b *flagBool) get() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v
}

// TestCloseIdempotent is the regression for the double-close bug: a second
// Close — or a Close after the read loop already tore the socket down —
// returns nil, not a spurious "use of closed network connection".
func TestCloseIdempotent(t *testing.T) {
	mesh := startMesh(t, 1, core.Persistent)
	c, err := Dial(mesh.controlAddr(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// Close after the server side already killed the socket (the read loop
	// saw the failure first).
	c2, err := Dial(mesh.controlAddr(0), fastRedial())
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if err := c2.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	mesh.servers[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c2.Ping(ctx); err != nil {
			break // read loop has processed the failure
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("close after connection death: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("re-close after connection death: %v", err)
	}
}

// TestCloseStopsRedialer: Close wakes a redialer in the middle of its
// backoff, so a closed client does not leave a goroutine sleeping out the
// rest of it.
func TestCloseStopsRedialer(t *testing.T) {
	mesh := startMesh(t, 1, core.Persistent)
	c, err := Dial(mesh.controlAddr(0), Options{RedialMin: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	mesh.servers[0].Close()
	waitRedialers := func(want int, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); redialers() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d redialers running, want %d", what, redialers(), want)
			}
		}
	}
	waitRedialers(1, "after the server closed")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitRedialers(0, "after Close, with a minute of backoff left")
}

// redialers counts the goroutines running a Client's redialLoop.
func redialers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), ".(*Client).redialLoop(")
}

// TestRecordingVerifySpansReconnect: a recorded history that spans a real
// connection cut and redial still merges and passes the atomicity checker —
// the lost-connection operations land on pending virtual clients (unknown
// fate), the outage-time rejections are erased, and the post-reconnect
// operations verify against the pre-cut ones.
func TestRecordingVerifySpansReconnect(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	ctx := testCtx(t)
	group := recmem.NewRecordingGroup()
	clients := make([]recmem.Client, 3)
	for i := 0; i < 3; i++ {
		clients[i] = group.Wrap(mesh.dialOpts(t, i, fastRedial()))
	}

	x := clients[0].Register("x")
	if err := x.Write(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, err := clients[1].Register("x").Read(ctx); err != nil || string(got) != "v1" {
		t.Fatalf("read = %q, %v", got, err)
	}

	// Stall the quorum through the recorded clients (the crashes land in
	// the history), leave writes hanging, and cut client 0's connection.
	if err := clients[1].Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if err := clients[2].Crash(ctx); err != nil {
		t.Fatal(err)
	}
	var futs []*recmem.WriteFuture
	for i := 0; i < 3; i++ {
		f, err := x.SubmitWrite([]byte("unknown-fate"))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	mesh.servers[0].Close() // the node process "dies"; nothing is listening
	for _, f := range futs {
		if err := f.Wait(ctx); !errors.Is(err, recmem.ErrCrashed) {
			t.Fatalf("pending write across restart: %v", err)
		}
	}
	// An outage-time invocation is rejected (and erased from the history):
	// with nothing listening, the redialer cannot reconnect yet.
	if err := x.Write(ctx, []byte("rejected")); !errors.Is(err, recmem.ErrDown) && !errors.Is(err, recmem.ErrCrashed) {
		t.Fatalf("write during outage: %v", err)
	}

	mesh.restartServer(t, 0)
	if err := clients[1].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := clients[2].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	writeWhenBack(ctx, t, x, "v2")
	for i, c := range clients {
		got, err := c.Register("x").Read(ctx)
		if err != nil || string(got) != "v2" {
			t.Fatalf("client %d read after reconnect = %q, %v", i, got, err)
		}
	}

	merged, err := group.Merged()
	if err != nil {
		t.Fatalf("merge across reconnect: %v", err)
	}
	if len(merged) == 0 {
		t.Fatal("empty merged history")
	}
	if err := recmem.VerifyHistory(merged, recmem.PersistentAtomicity); err != nil {
		t.Fatalf("verify across reconnect: %v", err)
	}
}
