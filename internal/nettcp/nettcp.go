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
	"context"
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

// One value each in every deployment, test and benchmark, so constants
// (docs/adr/0020): a dial or a single write taking longer drops the frames
// it carried (and, for the write, the connection); a failed dial is retried
// no sooner than redialBackoff later; a frame that would take a peer's
// pending bytes past maxPending is dropped, and so is a frame that overflows
// the receive queue.
const (
	dialTimeout   = 2 * time.Second
	writeTimeout  = 2 * time.Second
	redialBackoff = 10 * time.Millisecond
	maxPending    = 2 * maxFrame
	queueLen      = 4096
)

var dialer = net.Dialer{Timeout: dialTimeout}

// Options is empty: nothing about a mesh is tunable. The type stays only
// because the frozen benchmark (bench/tracenode.go) names it in Listen.
type Options struct{}

// Mesh is one process's attachment to the TCP mesh.
type Mesh struct {
	id   int32
	ln   net.Listener
	recv chan wire.Envelope
	ctx  context.Context // done once Close starts: ends dials and backoffs
	stop context.CancelFunc

	mu    sync.Mutex
	peers []string
	conns map[int32]*peerConn
	open  map[net.Conn]struct{} // accepted and dialed, each with a read loop

	wg sync.WaitGroup
}

// peerConn is the sending side of the link to one peer: a frame.Writer over
// a lazily dialed connection. Senders only encode into the writer and kick
// it; the dial and every write run on the writer's on-demand flusher, never
// on the engine goroutine that sent (docs/adr/0020).
type peerConn struct {
	m    *Mesh
	id   int32
	w    *frame.Writer // over the peerConn itself
	conn net.Conn      // guarded by m.mu; its read loop clears it
}

// Write is the writer's socket: it dials on demand, at the address SetPeers
// last gave the peer, and drops the bytes on any failure — fair-lossy, the
// round retransmits — after a failed dial only once redialBackoff has
// passed. It never reports an error, so the writer never turns sticky.
func (pc *peerConn) Write(p []byte) (int, error) {
	m := pc.m
	m.mu.Lock()
	conn, addr := pc.conn, ""
	if int(pc.id) < len(m.peers) {
		addr = m.peers[pc.id]
	}
	m.mu.Unlock()
	if conn == nil {
		c, err := dialer.DialContext(m.ctx, "tcp", addr)
		if err != nil {
			select {
			case <-time.After(redialBackoff):
			case <-m.ctx.Done():
			}
			return len(p), nil
		}
		if conn = c; !m.serve(conn, pc) {
			return len(p), nil
		}
	}
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(p); err != nil {
		conn.Close() // its read loop forgets it
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
		id:    id,
		ln:    ln,
		recv:  make(chan wire.Envelope, queueLen),
		conns: make(map[int32]*peerConn),
		open:  make(map[net.Conn]struct{}),
	}
	m.ctx, m.stop = context.WithCancel(context.Background())
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

// Send implements transport.Endpoint: best-effort, never blocks, drops on
// any failure.
func (m *Mesh) Send(env wire.Envelope) {
	env.From = m.id
	m.send([]wire.Envelope{env})
}

var _ transport.BatchSender = (*Mesh)(nil)

// SendBatch implements transport.BatchSender: all envelopes (one
// destination) travel in batch frames — one write system call for the lot
// instead of one per envelope.
func (m *Mesh) SendBatch(envs []wire.Envelope) {
	if len(envs) == 0 {
		return
	}
	stamped := make([]wire.Envelope, len(envs))
	for i, env := range envs {
		env.From = m.id
		stamped[i] = env
	}
	m.send(stamped)
}

// send queues envs, stamped and all to one destination, on the peer's writer
// and kicks its flusher. Bursts whose encoding would exceed the receiver's
// frame limit are split across several frames: a frame the receiver rejects
// would be rebuilt identically by every retransmission sweep and never get
// through. A frame that would take the peer past maxPending is dropped.
func (m *Mesh) send(envs []wire.Envelope) {
	if envs[0].To == m.id {
		m.loopback(envs...)
		return
	}
	pc := m.peer(envs[0].To)
	if pc == nil {
		return
	}
	for len(envs) > 0 {
		chunk := min(len(envs), wire.MaxBatchLen)
		if wire.BatchSize(envs[:chunk]) > maxFrame {
			for chunk = 1; chunk < len(envs); chunk++ {
				if wire.BatchSize(envs[:chunk+1]) > maxFrame {
					break
				}
			}
		}
		part := envs[:chunk]
		envs = envs[chunk:]
		_ = pc.w.Append(maxFrame, func(b []byte) (out []byte, err error) {
			if len(part) == 1 {
				out, err = wire.AppendEncode(b, part[0])
			} else {
				out, err = wire.AppendEncodeBatch(b, part)
			}
			if err == nil && len(out) > maxPending {
				err = frame.ErrTooLarge
			}
			return out, err
		})
	}
	pc.w.Kick()
}

// peer returns the sending side for process id, nil for an unknown peer or
// a closed mesh.
func (m *Mesh) peer(id int32) *peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ctx.Err() != nil || id < 0 || int(id) >= len(m.peers) {
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
	if m.ctx.Err() != nil {
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
		if err != nil || !m.serve(conn, nil) {
			return
		}
	}
}

// serve starts conn's read loop, or closes conn if the mesh is closed. pc is
// the peer a dialed conn sends to, nil for an accepted one.
func (m *Mesh) serve(conn net.Conn, pc *peerConn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ctx.Err() != nil {
		conn.Close()
		return false
	}
	m.open[conn] = struct{}{}
	if pc != nil {
		pc.conn = conn
	}
	m.wg.Add(1)
	go m.readLoop(conn, pc)
	return true
}

// readLoop delivers what arrives on conn until it fails. Nothing arrives on
// a dialed connection: there the loop notices the close, and forgets the
// connection so that the next send redials instead of writing into a dead
// incarnation's socket.
func (m *Mesh) readLoop(conn net.Conn, pc *peerConn) {
	defer m.wg.Done()
	defer func() {
		conn.Close()
		m.mu.Lock()
		delete(m.open, conn)
		if pc != nil && pc.conn == conn {
			pc.conn = nil
		}
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

// Close shuts the mesh down and closes the receive channel. It returns once
// every goroutine of the mesh has exited: read loops and flushers alike.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		return nil
	}
	m.stop()
	for conn := range m.open {
		conn.Close() // its read loop deletes it once m.mu is free
	}
	m.mu.Unlock()

	err := m.ln.Close()
	for _, pc := range m.conns { // peer no longer adds to it
		pc.w.Close()
	}
	m.wg.Wait()
	close(m.recv)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
