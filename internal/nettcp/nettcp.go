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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"recmem/internal/transport"
	"recmem/internal/wire"
)

// maxFrame bounds a frame: large enough for a batch frame carrying maximal
// values for many registers, small enough to reject garbage length prefixes.
const maxFrame = 16 << 20

// maxPooledFrame caps the capacity a recycled send buffer may retain: a
// rare giant batch frame reverts to the allocator instead of pinning its
// memory in the pool forever.
const maxPooledFrame = 1 << 20

// frameBuf is a reusable send-path frame buffer.
type frameBuf struct{ b []byte }

// framePool recycles send-path frame buffers, so the steady-state encode
// path allocates nothing: the frame (length prefix included) is appended
// into a recycled buffer and handed straight to the socket.
var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}

func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrameBuf(f *frameBuf) {
	if cap(f.b) > maxPooledFrame {
		return
	}
	f.b = f.b[:0]
	framePool.Put(f)
}

// Options tunes a mesh.
type Options struct {
	// DialTimeout bounds connection establishment (default 2 s).
	DialTimeout time.Duration
	// WriteTimeout bounds a single frame write (default 2 s); a timed-out
	// connection is dropped and redialed lazily.
	WriteTimeout time.Duration
	// QueueLen is the receive queue length (default 4096).
	QueueLen int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 4096
	}
	return o
}

// Mesh is one process's attachment to the TCP mesh.
type Mesh struct {
	id   int32
	opts Options
	ln   net.Listener
	recv chan wire.Envelope

	mu       sync.Mutex
	peers    []string
	conns    map[int32]*peerConn
	accepted map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
}

var _ transport.Endpoint = (*Mesh)(nil)

// Listen starts a mesh endpoint for process id on the given address (e.g.
// "127.0.0.1:0"). Peers must be provided with SetPeers before the first
// Send.
func Listen(id int32, addr string, opts Options) (*Mesh, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nettcp: listen: %w", err)
	}
	opts = opts.withDefaults()
	m := &Mesh{
		id:       id,
		opts:     opts,
		ln:       ln,
		recv:     make(chan wire.Envelope, opts.QueueLen),
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
// write timeout, drops on any failure.
func (m *Mesh) Send(env wire.Envelope) {
	env.From = m.id
	if env.To == m.id {
		m.loopback(env)
		return
	}
	f := getFrameBuf()
	defer putFrameBuf(f)
	frame, err := appendEnvelopeFrame(f.b[:0], env)
	if err != nil {
		return
	}
	f.b = frame
	m.writeFrame(env.To, frame)
}

var _ transport.BatchSender = (*Mesh)(nil)

// maxBatchBody bounds one batch frame's encoded body so that it always fits
// under the receiver's maxFrame limit (with room for the length prefix): a
// frame the receiver rejects would be rebuilt identically by every
// retransmission sweep and never get through.
const maxBatchBody = maxFrame - 4

// SendBatch implements transport.BatchSender: all envelopes (one
// destination) travel in length-prefixed batch frames — one write system
// call per frame instead of one per envelope. Bursts whose encoding would
// exceed the receiver's frame limit are split across several frames.
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
	for len(stamped) > 0 {
		chunk := len(stamped)
		if chunk > wire.MaxBatchLen {
			chunk = wire.MaxBatchLen
		}
		if wire.BatchSize(stamped[:chunk]) > maxBatchBody {
			for chunk = 1; chunk < len(stamped); chunk++ {
				if wire.BatchSize(stamped[:chunk+1]) > maxBatchBody {
					break
				}
			}
		}
		m.sendBatchFrame(stamped[:chunk])
		stamped = stamped[chunk:]
	}
}

// sendBatchFrame transmits one batch (or single-envelope) frame, built in a
// recycled buffer with the length prefix reserved up front — no
// encode-then-copy step.
func (m *Mesh) sendBatchFrame(envs []wire.Envelope) {
	f := getFrameBuf()
	defer putFrameBuf(f)
	var frame []byte
	var err error
	if len(envs) == 1 {
		frame, err = appendEnvelopeFrame(f.b[:0], envs[0])
	} else {
		frame = append(f.b[:0], 0, 0, 0, 0)
		frame, err = wire.AppendEncodeBatch(frame, envs)
		if err == nil {
			binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		}
	}
	if err != nil {
		return
	}
	f.b = frame
	m.writeFrame(envs[0].To, frame)
}

// writeFrame transmits one length-prefixed frame to peer id, dialing lazily
// and dropping the connection (and the frame) on any failure.
func (m *Mesh) writeFrame(id int32, frame []byte) {
	pc, addr, ok := m.peer(id)
	if !ok {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, m.opts.DialTimeout)
		if err != nil {
			return // fair-lossy: the round will retransmit
		}
		pc.conn = conn
	}
	_ = pc.conn.SetWriteDeadline(time.Now().Add(m.opts.WriteTimeout))
	if _, err := pc.conn.Write(frame); err != nil {
		pc.conn.Close()
		pc.conn = nil
	}
}

// peer returns the connection slot and address for process id.
func (m *Mesh) peer(id int32) (*peerConn, string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || id < 0 || int(id) >= len(m.peers) {
		return nil, "", false
	}
	pc := m.conns[id]
	if pc == nil {
		pc = &peerConn{}
		m.conns[id] = pc
	}
	return pc, m.peers[id], true
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
	var lenBuf [4]byte
	// The payload buffer is reused across frames: wire.Decode copies the
	// register name and value out of it, so nothing decoded aliases it once
	// deliver returns.
	var payload []byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return // protocol violation; drop the connection
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
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

// appendEnvelopeFrame appends env as a length-prefixed frame: the 4-byte
// slot is reserved first and patched after the in-place encode, so the body
// is written exactly once.
func appendEnvelopeFrame(buf []byte, env wire.Envelope) ([]byte, error) {
	mark := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err := wire.AppendEncode(buf, env)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[mark:], uint32(len(buf)-mark-4))
	return buf, nil
}
