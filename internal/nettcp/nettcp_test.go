package nettcp

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/core"
	"recmem/internal/frame"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// newMeshes starts n meshes on loopback and wires their peer tables.
func newMeshes(t *testing.T, n int) []*Mesh {
	t.Helper()
	meshes := make([]*Mesh, n)
	addrs := make([]string, n)
	for i := range meshes {
		m, err := Listen(int32(i), "127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		addrs[i] = m.Addr()
		t.Cleanup(func() { _ = m.Close() })
	}
	for _, m := range meshes {
		m.SetPeers(addrs)
	}
	return meshes
}

func TestSendReceive(t *testing.T) {
	meshes := newMeshes(t, 3)
	env := wire.Envelope{Kind: wire.KindWrite, To: 2, Reg: "x", RPC: 7, Value: []byte("hello")}
	meshes[0].Send(env)
	select {
	case got := <-meshes[2].Recv():
		if got.From != 0 || got.Reg != "x" || string(got.Value) != "hello" || got.RPC != 7 {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestLoopback(t *testing.T) {
	meshes := newMeshes(t, 2)
	meshes[1].Send(wire.Envelope{Kind: wire.KindRead, To: 1, Reg: "x"})
	select {
	case got := <-meshes[1].Recv():
		if got.From != 1 {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("no loopback delivery")
	}
}

func TestSendToUnknownPeerDrops(t *testing.T) {
	meshes := newMeshes(t, 2)
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 9})
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: -1})
	// Nothing to assert beyond "no panic, no block".
}

func TestSendToDeadPeerDropsThenRecovers(t *testing.T) {
	meshes := newMeshes(t, 3)
	addrs := []string{meshes[0].Addr(), meshes[1].Addr(), meshes[2].Addr()}
	// Kill peer 1 and send: drop without blocking.
	if err := meshes[1].Close(); err != nil {
		t.Fatal(err)
	}
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 1})

	// Restart peer 1 on a fresh port and retransmit: delivery resumes.
	m1b, err := Listen(1, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m1b.Close() })
	addrs[1] = m1b.Addr()
	for _, m := range []*Mesh{meshes[0], meshes[2], m1b} {
		m.SetPeers(addrs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 1, Reg: "x"})
		select {
		case <-m1b.Recv():
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after peer restart")
		}
	}
}

// gateConn is a peer connection whose Write blocks on a gate, so a test can
// hold one sender mid-write while others send behind it. Only the methods a
// peerConn calls are implemented.
type gateConn struct {
	net.Conn
	entered chan struct{} // signalled when a Write starts
	release chan struct{} // each Write waits for one token
	mu      sync.Mutex
	writes  [][]byte
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return len(p), nil
}

func (c *gateConn) SetWriteDeadline(time.Time) error { return nil }
func (c *gateConn) Close() error                     { return nil }

// TestSendsCoalesceBehindStalledWrite: senders to one peer never wait on
// its socket — a Send and a SendBatch issued while the flusher's first write
// is stalled return at once and leave together in ONE further write, as
// intact frames.
func TestSendsCoalesceBehindStalledWrite(t *testing.T) {
	m := newMeshes(t, 2)[0]
	gc := &gateConn{entered: make(chan struct{}), release: make(chan struct{})}
	pc := m.peer(1)
	m.mu.Lock()
	pc.conn = gc
	m.mu.Unlock()

	m.Send(wire.Envelope{Kind: wire.KindWrite, To: 1, RPC: 1, Reg: "first"})
	<-gc.entered // the flusher is mid-write; the sends below must not block
	m.Send(wire.Envelope{Kind: wire.KindWriteAck, To: 1, RPC: 2, Reg: "ack"})
	m.SendBatch([]wire.Envelope{
		{Kind: wire.KindRead, To: 1, RPC: 3, Reg: "b0"},
		{Kind: wire.KindRead, To: 1, RPC: 4, Reg: "b1"},
	})

	gc.release <- struct{}{}
	<-gc.entered
	gc.release <- struct{}{}
	pc.w.Close() // returns once the flusher has exited

	gc.mu.Lock()
	defer gc.mu.Unlock()
	if len(gc.writes) != 2 {
		t.Fatalf("3 sends took %d socket writes, want 2 (the first, then the other two together)", len(gc.writes))
	}
	var rpcs []uint64
	r, rb := bytes.NewReader(gc.writes[1]), new(frame.Buf)
	for r.Len() > 0 {
		payload, err := frame.Read(r, rb, maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if wire.IsBatch(payload) {
			envs, err := wire.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, env := range envs {
				rpcs = append(rpcs, env.RPC)
			}
			continue
		}
		env, err := wire.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		rpcs = append(rpcs, env.RPC)
	}
	if len(rpcs) != 3 || rpcs[0]+rpcs[1]+rpcs[2] != 2+3+4 {
		t.Fatalf("coalesced write carried RPCs %v, want 2, 3 and 4", rpcs)
	}
}

// TestWireBytesUnchanged pins the mesh's bytes on the wire against constants
// captured before framing moved to internal/frame: a node built from either
// side of that change reads the other's frames.
func TestWireBytesUnchanged(t *testing.T) {
	const (
		envelope = "00000047010300000000000000010000000000000007000000000000000b0200000000000000090000000200000003000a0000000c676f6c64656e2f726567676f6c64656e2076616c7565"
		batch    = "00000085b1000200000047010300000000000000010000000000000007000000000000000b0200000000000000090000000200000003000a0000000c676f6c64656e2f726567676f6c64656e2076616c756500000033010500000000000000010000000000000008000000000000000c00000000000000000000000000000000000002000000007232"
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	m := newMeshes(t, 1)[0]
	m.SetPeers([]string{m.Addr(), ln.Addr().String()})
	env := wire.Envelope{Kind: wire.KindWrite, To: 1, RPC: 7, Op: 11, Depth: 2,
		Tag: tag.Tag{Seq: 9, Writer: 2, Rec: 3}, Reg: "golden/reg", Value: []byte("golden value")}
	m.Send(env)
	m.SendBatch([]wire.Envelope{env, {Kind: wire.KindRead, To: 1, RPC: 8, Op: 12, Reg: "r2"}})
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, (len(envelope)+len(batch))/2)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != envelope+batch {
		t.Fatalf("wire bytes changed:\n got %x\nwant %s%s", got, envelope, batch)
	}
}

// recvRPC waits for the next envelope on m and checks its RPC.
func recvRPC(t *testing.T, m *Mesh, rpc uint64) {
	t.Helper()
	select {
	case got := <-m.Recv():
		if got.RPC != rpc {
			t.Fatalf("got RPC %d, want %d", got.RPC, rpc)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("envelope %d never arrived", rpc)
	}
}

// TestFirstSendAfterPeerRestartArrives: a peer that restarts on the same
// address gets the very first envelope sent to its new incarnation. The
// outbound connection's reader sees the old incarnation close, so the next
// send redials instead of writing into a dead socket and waiting for a
// retransmission.
func TestFirstSendAfterPeerRestartArrives(t *testing.T) {
	meshes := newMeshes(t, 2)
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 1, RPC: 1, Reg: "x"})
	recvRPC(t, meshes[1], 1) // the connection to peer 1 exists

	addr := meshes[1].Addr()
	if err := meshes[1].Close(); err != nil {
		t.Fatal(err)
	}
	m1b, err := Listen(1, addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m1b.Close() })
	// A process restart takes longer than the old connection's close takes
	// to reach the reader; grant the mesh that moment.
	for i := 0; i < 100 && !forgotten(meshes[0], 1); i++ {
		time.Sleep(time.Millisecond)
	}
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 1, RPC: 2, Reg: "x"})
	recvRPC(t, m1b, 2)
}

// forgotten reports whether m holds no connection to peer id.
func forgotten(m *Mesh, id int32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.conns[id] == nil || m.conns[id].conn == nil
}

// meshGoroutines counts the goroutines of any mesh: accept and read loops,
// and the flushers of peer writers.
func meshGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("recmem/internal/nettcp.(*Mesh)")) ||
			bytes.Contains(g, []byte("created by recmem/internal/frame.(*Writer).Kick")) {
			n++
		}
	}
	return n
}

// TestCloseStopsFlushersAndReaders: Close returns once every goroutine of
// the mesh is done — the read loops of accepted and of dialed connections,
// and the peers' flushers, one of them stuck in a dial that would hang for
// dialTimeout.
func TestCloseStopsFlushersAndReaders(t *testing.T) {
	stalled := stalledAddr(t)
	meshes := newMeshes(t, 2)
	addrs := []string{meshes[0].Addr(), meshes[1].Addr(), stalled}
	for _, m := range meshes {
		m.SetPeers(addrs)
	}
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 1, RPC: 1})
	meshes[1].Send(wire.Envelope{Kind: wire.KindRead, To: 0, RPC: 2})
	recvRPC(t, meshes[1], 1)
	recvRPC(t, meshes[0], 2)
	meshes[0].Send(wire.Envelope{Kind: wire.KindRead, To: 2, RPC: 3})

	start := time.Now()
	for _, m := range meshes {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > dialTimeout/2 {
		t.Fatalf("Close took %v: it waited out the hanging dial", d)
	}
	// wg.Done is each goroutine's last deferred call; give it the moment to
	// return.
	for i := 0; i < 100 && meshGoroutines() != 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := meshGoroutines(); n != 0 {
		t.Fatalf("%d mesh goroutines outlived Close", n)
	}
}

func TestCloseIdempotentAndClosesRecv(t *testing.T) {
	meshes := newMeshes(t, 2)
	if err := meshes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := meshes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-meshes[0].Recv(); ok {
		t.Fatal("recv channel not closed")
	}
}

// startNodes runs one persistent-atomic node of an n-process emulation on
// each mesh.
func startNodes(t *testing.T, meshes []*Mesh, n int) []*core.Node {
	t.Helper()
	ids := &atomic.Uint64{}
	nodes := make([]*core.Node, len(meshes))
	for i, m := range meshes {
		nd, err := core.NewNode(int32(i), n, core.Persistent,
			core.Options{RetransmitEvery: 50 * time.Millisecond},
			core.Deps{
				Endpoint: m,
				Storage:  stable.NewMemDisk(stable.Profile{}),
				IDs:      ids,
			})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		t.Cleanup(nd.Close)
	}
	return nodes
}

// TestEmulationOverTCP runs the full persistent-atomic emulation over real
// sockets: the paper's deployment shape (one process per workstation), here
// on loopback.
func TestEmulationOverTCP(t *testing.T) {
	nodes := startNodes(t, newMeshes(t, 3), 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := nodes[0].Write(ctx, "x", []byte("over-tcp"), core.OpObserver{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	val, _, err := nodes[1].Read(ctx, "x", core.OpObserver{})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(val) != "over-tcp" {
		t.Fatalf("read = %q", val)
	}
	// Crash and recover node 2, then read from it.
	nodes[2].Crash(nil)
	if err := nodes[2].Recover(ctx, nil, nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	val, _, err = nodes[2].Read(ctx, "x", core.OpObserver{})
	if err != nil || string(val) != "over-tcp" {
		t.Fatalf("read after recover = %q, %v", val, err)
	}
}

// percentile returns the p-th percentile of ds, sorting them.
func percentile(ds []time.Duration, p int) time.Duration {
	slices.Sort(ds)
	return ds[min(len(ds)-1, len(ds)*p/100)]
}

// TestStalledPeerDoesNotStallMajority: one peer whose every dial hangs until
// dialTimeout (its accept queue is full) costs the healthy majority nothing.
// Node 0's sync writes and reads on a 3-process mesh whose process 2 is
// stalled keep a healthy mesh's latencies — p50 within 1.25×, write p99
// within 2× — because no engine goroutine dials or writes a socket. The two
// meshes run side by side, their operations interleaved, so drift of the
// machine hits both alike.
func TestStalledPeerDoesNotStallMajority(t *testing.T) {
	stalled := stalledAddr(t)
	healthy := startNodes(t, newMeshes(t, 3), 3)[0]
	live := newMeshes(t, 2)
	for _, m := range live {
		m.SetPeers([]string{live[0].Addr(), live[1].Addr(), stalled})
	}
	sick := startNodes(t, live, 3)[0]

	// measure returns the bounds one round of interleaved operations breaks.
	measure := func() (broken []string) {
		const ops = 300
		var lat [2][2][]time.Duration // [healthy, sick][write, read]
		for i := -20; i < ops; i++ {  // the first 20 of each are not timed
			for side, nd := range []*core.Node{healthy, sick} {
				for kind := range 2 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					start := time.Now()
					var err error
					if kind == 0 {
						_, err = nd.Write(ctx, "x", []byte("v"), core.OpObserver{})
					} else {
						_, _, err = nd.Read(ctx, "x", core.OpObserver{})
					}
					cancel()
					if err != nil {
						t.Fatalf("mesh %d, op %d: %v", side, i, err)
					}
					if i >= 0 {
						lat[side][kind] = append(lat[side][kind], time.Since(start))
					}
				}
			}
		}
		for _, c := range []struct {
			name      string
			kind, pct int
			bound     float64
		}{{"write_p50", 0, 50, 1.25}, {"write_p99", 0, 99, 2}, {"read_p50", 1, 50, 1.25}} {
			h, s := percentile(lat[0][c.kind], c.pct), percentile(lat[1][c.kind], c.pct)
			t.Logf("%s: healthy %v, one peer stalled %v", c.name, h, s)
			if float64(s) > c.bound*float64(h) {
				broken = append(broken, fmt.Sprintf("%s with a stalled peer is %v, over %.2f× the healthy mesh's %v", c.name, s, c.bound, h))
			}
		}
		return broken
	}
	// The best of three rounds is judged: a burst of load from whatever else
	// the machine runs must not fail a latency bound, while a stalled
	// majority misses it by seconds in every round.
	var broken []string
	for round := 0; round < 3; round++ {
		if broken = measure(); len(broken) == 0 {
			return
		}
	}
	t.Error(strings.Join(broken, "; "))
}
