package nettcp

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net"
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

// TestSendsCoalesceBehindStalledWrite: senders to one peer never queue on a
// lock behind another sender's write — a Send and a SendBatch issued while
// the first write is stalled return at once and leave together in ONE
// further write, as intact frames.
func TestSendsCoalesceBehindStalledWrite(t *testing.T) {
	m := newMeshes(t, 2)[0]
	gc := &gateConn{entered: make(chan struct{}), release: make(chan struct{})}
	pc := m.peer(1)
	pc.mu.Lock()
	pc.conn = gc
	pc.mu.Unlock()

	first := make(chan struct{})
	go func() {
		m.Send(wire.Envelope{Kind: wire.KindWrite, To: 1, RPC: 1, Reg: "first"})
		close(first)
	}()
	<-gc.entered // the first sender is mid-write

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m.Send(wire.Envelope{Kind: wire.KindWriteAck, To: 1, RPC: 2, Reg: "ack"})
	}()
	go func() {
		defer wg.Done()
		m.SendBatch([]wire.Envelope{
			{Kind: wire.KindRead, To: 1, RPC: 3, Reg: "b0"},
			{Kind: wire.KindRead, To: 1, RPC: 4, Reg: "b1"},
		})
	}()
	wg.Wait() // both returned while the socket is still stalled

	gc.release <- struct{}{}
	<-gc.entered
	gc.release <- struct{}{}
	<-first

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

// TestEmulationOverTCP runs the full persistent-atomic emulation over real
// sockets: the paper's deployment shape (one process per workstation), here
// on loopback.
func TestEmulationOverTCP(t *testing.T) {
	const n = 3
	meshes := newMeshes(t, n)
	ids := &atomic.Uint64{}
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		nd, err := core.NewNode(int32(i), n, core.Persistent,
			core.Options{RetransmitEvery: 50 * time.Millisecond},
			core.Deps{
				Endpoint: meshes[i],
				Storage:  stable.NewMemDisk(stable.Profile{}),
				IDs:      ids,
			})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		t.Cleanup(nd.Close)
	}
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
