package remote

// Regression tests for the buffer-ownership rules of the pooled frame path
// (docs/adr/0007, 0013): whatever a decoder hands across the API boundary
// must be an owned copy that survives the frame buffer's reuse and
// recycling, the client's send path must deliver an intact frame stream in
// fewer socket writes than frames, and the server's reply group-commit must
// be observable through WriterStats. The writer itself is tested in
// internal/frame.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
	"recmem/internal/frame"
	"recmem/internal/tag"
)

// TestDecodedRequestSurvivesBufferReuse decodes a request out of a buffer
// that is then clobbered — the server read loop's reuse pattern — and checks
// every decoded field still holds.
func TestDecodedRequestSurvivesBufferReuse(t *testing.T) {
	body, err := encodeRequest(request{Kind: reqWrite, ID: 42, Reg: "reg-a", Value: []byte("payload-1")})
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]string)
	req, err := decodeRequestReuse(body, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xAA
	}
	if req.Reg != "reg-a" || !bytes.Equal(req.Value, []byte("payload-1")) {
		t.Fatalf("decoded request aliases the reused buffer: reg %q value %q", req.Reg, req.Value)
	}
	// The intern table must keep handing out the same owned string, not a
	// view of a dead buffer.
	body2, err := encodeRequest(request{Kind: reqRead, ID: 43, Reg: "reg-a"})
	if err != nil {
		t.Fatal(err)
	}
	req2, err := decodeRequestReuse(body2, names)
	if err != nil {
		t.Fatal(err)
	}
	if req2.Reg != "reg-a" {
		t.Fatalf("interned name corrupted: %q", req2.Reg)
	}
}

// TestDecodedReadValueSurvivesFrameRecycling is the ownership regression the
// pooled path hangs on: a read reply's value decoded from a pooled frame
// buffer must stay intact after the buffer goes back to the pool, is handed
// out again, and is overwritten by the next frame.
func TestDecodedReadValueSurvivesFrameRecycling(t *testing.T) {
	want := bytes.Repeat([]byte("value-A!"), 8)
	var stream bytes.Buffer
	w := frame.NewWriter(&stream, nil)
	for i, val := range [][]byte{want, bytes.Repeat([]byte{0xEE}, len(want)+16)} {
		r := response{Kind: reqRead, ID: uint64(i), Op: 1, Present: true, Value: val,
			Tag: tag.Tag{Seq: 1, Writer: 0, Rec: 1}, Epoch: 1}
		if err := w.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendResponse(b, r) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rb := frame.Get()
	body, err := frame.Read(&stream, rb, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	// The second frame overwrites the shared read buffer; the first frame's
	// decoded value must not notice.
	if _, err := frame.Read(&stream, rb, MaxFrame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Value, want) {
		t.Fatalf("decoded read value aliases the reused read buffer: %q", resp.Value)
	}

	// Recycle the buffer and clobber its whole capacity, as the next frame
	// built in it would.
	frame.Put(rb)
	g := frame.Get()
	g.B = g.B[:cap(g.B)]
	for i := range g.B {
		g.B[i] = 0xFF
	}
	frame.Put(g)
	if !bytes.Equal(resp.Value, want) {
		t.Fatalf("decoded read value aliases the recycled frame buffer: %q", resp.Value)
	}
}

// gateConn is a net.Conn whose Write blocks on a gate, so a test can hold
// the coalescer's leader mid-write while followers queue frames behind it.
type gateConn struct {
	entered chan struct{} // signaled when a Write starts
	release chan struct{} // each Write waits for one token
	mu      sync.Mutex
	buf     bytes.Buffer
	writes  int
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.buf.Write(p)
}

func (c *gateConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (c *gateConn) Close() error                     { return nil }
func (c *gateConn) LocalAddr() net.Addr              { return nil }
func (c *gateConn) RemoteAddr() net.Addr             { return nil }
func (c *gateConn) SetDeadline(time.Time) error      { return nil }
func (c *gateConn) SetReadDeadline(time.Time) error  { return nil }
func (c *gateConn) SetWriteDeadline(time.Time) error { return nil }

// TestConnWriterCoalesces pins the client's send path on its connection
// writer: send encodes into the writer and flushes inline, so requests
// submitted while the first sender's write is on the wire return at once and
// ride the next sweep as ONE socket write, and the byte stream stays an
// intact, ordered frame sequence.
func TestConnWriterCoalesces(t *testing.T) {
	conn := &gateConn{entered: make(chan struct{}), release: make(chan struct{})}
	c := &Client{conn: conn, cw: frame.NewWriter(conn, nil), pending: make(map[uint64]*call)}
	send := func() error {
		_, err := c.send(request{Kind: reqWrite, Reg: "r", Value: []byte("v")})
		return err
	}

	errc := make(chan error, 1)
	go func() { errc <- send() }()
	<-conn.entered // the leader is mid-write with request 1

	// Followers: both return immediately, leaving their frames queued.
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}

	conn.release <- struct{}{} // finish request 1; the leader sweeps 2+3
	<-conn.entered             // the leader is mid-write with the burst
	conn.release <- struct{}{}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	conn.mu.Lock()
	writes, stream := conn.writes, conn.buf.Bytes()
	conn.mu.Unlock()
	if writes != 2 {
		t.Fatalf("3 frames took %d socket writes, want 2 (frame 1, then the 2+3 burst)", writes)
	}
	r := bytes.NewReader(stream)
	for want := uint64(1); want <= 3; want++ {
		body, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		req, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if req.ID != want {
			t.Fatalf("frame order broken: got id %d, want %d", req.ID, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", r.Len())
	}
}

// TestServerReplyGroupCommit pins the acceptance-bar observable
// deterministically: replies queued while the connection's flusher is
// mid-write must leave together in ONE further socket write, counted as one
// burst carrying that many frames (WriterStats), intact and in order.
func TestServerReplyGroupCommit(t *testing.T) {
	s := &Server{}
	conn := &gateConn{entered: make(chan struct{}), release: make(chan struct{})}
	w := frame.NewWriter(conn, &s.wstats)
	reply(w, response{Kind: reqPing, ID: 0}) // starts the flusher
	<-conn.entered                           // ... which is mid-write with reply 0
	const queued = 5
	for i := 1; i <= queued; i++ {
		reply(w, response{Kind: reqPing, ID: uint64(i)})
	}
	conn.release <- struct{}{}
	<-conn.entered // the pile, in one write
	conn.release <- struct{}{}
	w.Close() // returns once the flusher has exited

	bursts, frames := s.WriterStats()
	if bursts != 2 || frames != queued+1 {
		t.Fatalf("WriterStats = %d bursts, %d frames; want reply 0, then 1 burst carrying %d frames", bursts, frames, queued)
	}
	conn.mu.Lock()
	writes, stream := conn.writes, conn.buf.Bytes()
	conn.mu.Unlock()
	if writes != 2 {
		t.Fatalf("%d queued replies took %d socket writes after the first, want 1", queued, writes-1)
	}
	r := bytes.NewReader(stream)
	for want := uint64(0); want <= queued; want++ {
		body, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		got, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if got.ID != want || got.Kind != reqPing {
			t.Fatalf("frame order broken: got %v id %d, want PING id %d", got.Kind, got.ID, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", r.Len())
	}
}

// TestWriterStatsUnderLoad sanity-checks the counters end to end: after a
// pipelined run every reply frame is accounted for and the invariant
// frames ≥ bursts holds (whether a given burst coalesced is scheduler
// timing; the deterministic proof is TestServerReplyGroupCommit).
func TestWriterStatsUnderLoad(t *testing.T) {
	mesh := startMesh(t, 3, core.Persistent)
	c := mesh.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	regs := make([]*recmem.Register, 4)
	for i := range regs {
		regs[i] = c.Register(fmt.Sprintf("gc%d", i))
	}
	val := bytes.Repeat([]byte("x"), 64)
	const ops = 256
	futs := make([]*recmem.WriteFuture, 0, ops)
	for i := 0; i < ops; i++ {
		f, err := regs[i%len(regs)].SubmitWrite(val)
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
	bursts, frames := mesh.servers[0].WriterStats()
	// ops replies plus the dial handshake; redials could add more, never
	// fewer. frames ≥ bursts ≥ 1 is the structural invariant.
	if frames < ops+1 {
		t.Fatalf("writer carried %d frames, want at least %d", frames, ops+1)
	}
	if bursts == 0 || frames < bursts {
		t.Fatalf("inconsistent writer stats: bursts %d, frames %d", bursts, frames)
	}
}
