// Package nettcp is the real-network counterpart of internal/netsim: a TCP
// mesh connecting the processes of an emulation across machines, as in the
// paper's measurements on a LAN of workstations. Each process listens on one
// address; envelopes are length-prefixed frames of the internal/wire codec.
//
// The transport deliberately keeps fair-lossy semantics even though TCP is
// reliable per connection: a send with no live connection drops the envelope
// (the protocol rounds retransmit), connection failures lose buffered
// frames, and receive-queue overflow drops too. The emulation algorithms
// assume nothing stronger.
package nettcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"recmem/internal/frame"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

// maxFrame bounds a frame: large enough for a batch frame carrying maximal
// values for many registers, small enough to reject garbage length prefixes.
const maxFrame = 16 << 20

// One value each in every deployment, test and benchmark, so constants: a
// dial or a single write taking longer drops the frames it carried (and, for
// the write, the connection, redialed lazily); the receive queue drops on
// overflow.
const (
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second
	queueLen     = 4096
)

// Options is empty: nothing about a mesh is tunable. The type stays only
// because the frozen benchmark (bench/tracenode.go) names it in Listen.
type Options struct{}

// Mesh is one process's attachment to the TCP mesh.
type Mesh struct {
	id   int32
	ln   net.Listener
	recv chan wire.Envelope

	mu       sync.Mutex
	peers    []string
	conns    map[int32]*peerConn
	accepted map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// peerConn is the sending side of the link to one peer: a frame.Writer over
// a lazily dialed connection. Senders encode into the writer and flush
// inline, so frames queued while one sender's write is in flight — the
// listener's acks, the outbox flusher's batches — leave in the next write
// instead of queueing on a lock. No goroutine belongs to a peer.
type peerConn struct {
	m  *Mesh
	id int32
	w  *frame.Writer // over the peerConn itself

	mu   sync.Mutex // conn: the one flusher against Close
	conn net.Conn
}

// Write is the writer's socket: it dials on demand, at the address SetPeers
// last gave the peer, and on any failure drops the bytes and the connection
// — fair-lossy, the round will retransmit. It never reports an error, so the
// writer never turns sticky and the next flush redials.
func (pc *peerConn) Write(p []byte) (int, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		addr, ok := pc.m.addr(pc.id)
		if !ok {
			return len(p), nil
		}
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			return len(p), nil
		}
		pc.conn = conn
	}
	_ = pc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := pc.conn.Write(p); err != nil {
		pc.conn.Close()
		pc.conn = nil
	}
	return len(p), nil
}

var _ transport.Endpoint = (*Mesh)(nil)

// Listen starts a mesh endpoint for process id on the given address (e.g.
// "127.0.0.1:0"). Peers must be provided with SetPeers before the first
// Send.
func Listen(id int32, addr string, _ Options) (*Mesh, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nettcp: listen: %w", err)
	}
	m := &Mesh{
		id:       id,
		ln:       ln,
		recv:     make(chan wire.Envelope, queueLen),
		conns:    make(map[int32]*peerConn),
		accepted: make(map[net.Conn]struct{}),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the actual listen address (useful with port 0).
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// SetPeers installs the address of every process; peers[i] is process i's
// listen address. The local entry is ignored (loopback short-circuits).
func (m *Mesh) SetPeers(peers []string) {
	m.mu.Lock()
	m.peers = make([]string, len(peers))
	copy(m.peers, peers)
	m.mu.Unlock()
}

// ID implements transport.Endpoint.
func (m *Mesh) ID() int32 { return m.id }

// Recv implements transport.Endpoint.
func (m *Mesh) Recv() <-chan wire.Envelope { return m.recv }

// Send implements transport.Endpoint: best-effort, never blocks beyond the
// dial and write timeouts, drops on any failure.
func (m *Mesh) Send(env wire.Envelope) {
	env.From = m.id
	if env.To == m.id {
		m.loopback(env)
		return
	}
	pc := m.peer(env.To)
	if pc == nil {
		return
	}
	if pc.w.Append(maxFrame, func(b []byte) ([]byte, error) { return wire.AppendEncode(b, env) }) == nil {
		_ = pc.w.Flush()
	}
}

var _ transport.BatchSender = (*Mesh)(nil)

// SendBatch implements transport.BatchSender: all envelopes (one
// destination) travel in batch frames — one write system call for the lot
// instead of one per envelope. Bursts whose encoding would exceed the
// receiver's frame limit are split across several frames: a frame the
// receiver rejects would be rebuilt identically by every retransmission
// sweep and never get through.
func (m *Mesh) SendBatch(envs []wire.Envelope) {
	if len(envs) == 0 {
		return
	}
	stamped := make([]wire.Envelope, len(envs))
	for i, env := range envs {
		env.From = m.id
		stamped[i] = env
	}
	if stamped[0].To == m.id {
		m.loopback(stamped...)
		return
	}
	pc := m.peer(stamped[0].To)
	if pc == nil {
		return
	}
	for len(stamped) > 0 {
		chunk := min(len(stamped), wire.MaxBatchLen)
		if wire.BatchSize(stamped[:chunk]) > maxFrame {
			for chunk = 1; chunk < len(stamped); chunk++ {
				if wire.BatchSize(stamped[:chunk+1]) > maxFrame {
					break
				}
			}
		}
		part := stamped[:chunk]
		stamped = stamped[chunk:]
		_ = pc.w.Append(maxFrame, func(b []byte) ([]byte, error) {
			if len(part) == 1 {
				return wire.AppendEncode(b, part[0])
			}
			return wire.AppendEncodeBatch(b, part)
		})
	}
	_ = pc.w.Flush()
}

// peer returns the sending side for process id, nil for an unknown peer or
// a closed mesh.
func (m *Mesh) peer(id int32) *peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || id < 0 || int(id) >= len(m.peers) {
		return nil
	}
	pc := m.conns[id]
	if pc == nil {
		pc = &peerConn{m: m, id: id}
		pc.w = frame.NewWriter(pc, nil)
		m.conns[id] = pc
	}
	return pc
}

// addr resolves a peer's current address at dial time.
func (m *Mesh) addr(id int32) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || int(id) >= len(m.peers) {
		return "", false
	}
	return m.peers[id], true
}

func (m *Mesh) deliver(env wire.Envelope) {
	select {
	case m.recv <- env:
	default: // queue overflow: fair-lossy drop
	}
}

// loopback delivers a process's messages to itself. Unlike the read loops,
// which Close waits for, senders outlive the mesh: the closed check under
// m.mu keeps a late send off the receive channel Close is closing.
func (m *Mesh) loopback(envs ...wire.Envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	for _, env := range envs {
		m.deliver(env)
	}
}

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.accepted[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.readLoop(conn)
	}
}

func (m *Mesh) readLoop(conn net.Conn) {
	defer m.wg.Done()
	defer func() {
		conn.Close()
		m.mu.Lock()
		delete(m.accepted, conn)
		m.mu.Unlock()
	}()
	// One buffer is reused across frames: wire.Decode copies the register
	// name and value out of it, so nothing decoded aliases it once deliver
	// returns.
	rb := frame.Get()
	defer frame.Put(rb)
	for {
		payload, err := frame.Read(conn, rb, maxFrame)
		if err != nil {
			return // EOF or a protocol violation; drop the connection
		}
		if wire.IsBatch(payload) {
			envs, err := wire.DecodeBatch(payload)
			if err != nil {
				return
			}
			for _, env := range envs {
				m.deliver(env)
			}
			continue
		}
		env, err := wire.Decode(payload)
		if err != nil {
			return
		}
		m.deliver(env)
	}
}

// Close shuts the mesh down and closes the receive channel.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := m.conns
	m.conns = make(map[int32]*peerConn)
	accepted := make([]net.Conn, 0, len(m.accepted))
	for conn := range m.accepted {
		accepted = append(accepted, conn)
	}
	m.mu.Unlock()

	err := m.ln.Close()
	for _, pc := range conns {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
		}
		pc.mu.Unlock()
	}
	for _, conn := range accepted {
		conn.Close()
	}
	m.wg.Wait()
	close(m.recv)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
