package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
)

// The two limits in use: the control port's and the mesh's.
const (
	controlLimit = 1 << 20
	meshLimit    = 16 << 20
)

// body returns an encoder appending p.
func body(p []byte) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return append(b, p...), nil }
}

// frameOf is the reference encoding the package is checked against.
func frameOf(p []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
}

// gate is an io.Writer whose Write blocks, so a test can hold a flusher
// mid-write while producers queue behind it.
type gate struct {
	entered chan struct{} // signalled when a Write starts
	release chan error    // each Write waits for its result
	mu      sync.Mutex
	writes  [][]byte
}

func newGate() *gate { return &gate{entered: make(chan struct{}), release: make(chan error)} }

func (g *gate) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	if err := <-g.release; err != nil {
		return 0, err
	}
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	return len(p), nil
}

// TestWriterCoalesces pins the writer's contract for both kinds of flusher,
// a caller of Flush and the goroutine Kick starts: frames queued while a
// write is on the wire return at once and leave together in exactly one
// further write, in order, and the counters say so.
func TestWriterCoalesces(t *testing.T) {
	for _, kick := range []bool{false, true} {
		g := newGate()
		var st Stats
		w := NewWriter(g, &st)
		send := func(p string) error {
			if err := w.Append(controlLimit, body([]byte(p))); err != nil {
				return err
			}
			if kick {
				w.Kick()
				return nil
			}
			return w.Flush()
		}

		errc := make(chan error, 1)
		go func() { errc <- send("first") }()
		<-g.entered // the flusher is mid-write with frame 1

		const n = 5
		var want []byte
		for i := 0; i < n; i++ {
			p := string(rune('a' + i))
			if err := send(p); err != nil { // returns without touching the gate
				t.Fatal(err)
			}
			want = append(want, frameOf([]byte(p))...)
		}
		if b, f := st.Bursts.Load(), st.Frames.Load(); b != 1 || f != 1 {
			t.Fatalf("kick=%v: mid-write stats = %d bursts, %d frames; want 1, 1", kick, b, f)
		}

		g.release <- nil // finish frame 1; the flusher sweeps the rest
		<-g.entered
		g.release <- nil
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		w.wg.Wait() // the kicked flusher, if any, has exited
		if len(g.writes) != 2 {
			t.Fatalf("kick=%v: %d frames took %d writes, want 2", kick, n+1, len(g.writes))
		}
		if !bytes.Equal(g.writes[0], frameOf([]byte("first"))) || !bytes.Equal(g.writes[1], want) {
			t.Fatalf("kick=%v: stream broken: %x | %x", kick, g.writes[0], g.writes[1])
		}
		if b, f := st.Bursts.Load(), st.Frames.Load(); b != 2 || f != n+1 {
			t.Fatalf("kick=%v: stats = %d bursts, %d frames; want 2, %d", kick, b, f, n+1)
		}
	}
}

// flushers counts the goroutines Kick started that are still alive.
func flushers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by recmem/internal/frame.(*Writer).Kick"))
}

// TestKickStartsOneFlusher: an idle writer starts no goroutine; the first
// kick after an append starts exactly one, later kicks while it writes start
// none, and the flusher exits once the writer is empty.
func TestKickStartsOneFlusher(t *testing.T) {
	g := newGate()
	w := NewWriter(g, nil)
	w.Kick() // nothing queued
	if n := flushers(); n != 0 {
		t.Fatalf("a kick on an empty writer left %d flushers", n)
	}
	_ = w.Append(controlLimit, body([]byte("a")))
	w.Kick()
	<-g.entered // the flusher is mid-write
	for i := 0; i < 10; i++ {
		_ = w.Append(controlLimit, body([]byte("b")))
		w.Kick()
	}
	if n := flushers(); n != 1 {
		t.Fatalf("%d flushers while one write is in flight, want 1", n)
	}
	g.release <- nil
	<-g.entered // the ten kicks' frames, in one write
	g.release <- nil
	w.wg.Wait() // Done is the flusher's last act: it exited with the queue empty
	if len(g.writes) != 2 || w.flushing || w.queued != 0 {
		t.Fatalf("%d writes, flushing %v, %d queued; want 2, false, 0", len(g.writes), w.flushing, w.queued)
	}
}

// TestWriterKickAllocatesNothing: the engine's steady cycle — append one
// frame, kick, let the flusher write it and exit — allocates nothing, the
// goroutine included.
func TestWriterKickAllocatesNothing(t *testing.T) {
	w := NewWriter(io.Discard, nil)
	enc := body([]byte("steady"))
	cycle := func() {
		_ = w.Append(controlLimit, enc)
		w.Kick()
		w.wg.Wait()
	}
	cycle() // warm: the first cycle takes a buffer from the pool
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("append/kick cycle allocates %.2f times, want 0", allocs)
	}
}

// TestWriterStickyError: a failed write fails every later flush, and frames
// appended to the dead writer are dropped instead of piling up.
func TestWriterStickyError(t *testing.T) {
	g := newGate()
	w := NewWriter(g, nil)
	boom := errors.New("boom")

	errc := make(chan error, 1)
	go func() {
		_ = w.Append(controlLimit, body([]byte("x")))
		errc <- w.Flush()
	}()
	<-g.entered
	if err := w.Append(controlLimit, body([]byte("queued behind the failing write"))); err != nil {
		t.Fatal(err)
	}
	g.release <- boom
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("flusher got %v, want boom", err)
	}
	for i := 0; i < 1000; i++ {
		if err := w.Append(controlLimit, body(make([]byte, 1024))); err != nil {
			t.Fatalf("append on a failed writer: %v", err)
		}
		w.Kick() // starts nothing: there is nothing to write
		if w.pend != nil || w.queued != 0 || w.flushing {
			t.Fatalf("failed writer keeps queueing: %d frames pending", w.queued)
		}
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("later flush got %v, want the sticky error", err)
	}

	// Close is the same state without a write having failed.
	c := NewWriter(io.Discard, nil)
	_ = c.Append(controlLimit, body([]byte("x")))
	c.Close()
	_ = c.Append(controlLimit, body([]byte("y")))
	if c.pend != nil || c.Flush() == nil {
		t.Fatalf("closed writer: pend %v, flush %v", c.pend, c.Flush())
	}

	// A kicked flusher whose write fails closes the connection, so the
	// connection's reader sees the failure.
	cg := &closerGate{gate: newGate(), closed: make(chan struct{})}
	k := NewWriter(cg, nil)
	_ = k.Append(controlLimit, body([]byte("z")))
	k.Kick()
	<-cg.entered
	cg.release <- boom
	<-cg.closed
	k.Close()
}

// closerGate is a gate that is also an io.Closer.
type closerGate struct {
	*gate
	closed chan struct{}
}

func (c *closerGate) Close() error { close(c.closed); return nil }

// TestAppendRollsBack: an over-limit body or a failing encoder leaves the
// pending batch exactly as it was.
func TestAppendRollsBack(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out, nil)
	if err := w.Append(8, body([]byte("12345678"))); err != nil { // at the limit
		t.Fatal(err)
	}
	if err := w.Append(8, body([]byte("123456789"))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-limit body: %v", err)
	}
	bad := errors.New("bad value")
	err := w.Append(8, func(b []byte) ([]byte, error) { return append(b, "par"...), bad })
	if !errors.Is(err, bad) {
		t.Fatalf("encoder error: %v", err)
	}
	if err := w.Append(8, body(nil)); err != nil { // an empty body is a frame
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := append(frameOf([]byte("12345678")), frameOf(nil)...); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stream %x, want %x", out.Bytes(), want)
	}
}

// TestWriterConcurrentProducers is the -race test: every frame of every
// producer arrives intact, whoever happened to flush it.
func TestWriterConcurrentProducers(t *testing.T) {
	const producers, each = 8, 200
	var out bytes.Buffer // written by one flusher at a time
	var st Stats
	w := NewWriter(&out, &st)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(controlLimit, body(bytes.Repeat([]byte{p}, 1+i%64))); err != nil {
					t.Error(err)
				}
				if err := w.Flush(); err != nil {
					t.Error(err)
				}
			}
		}(byte(p))
	}
	wg.Wait()
	if err := w.Flush(); err != nil { // a no-op: every Append was followed by a Flush
		t.Fatal(err)
	}
	seen := make([]int, producers)
	rb := new(Buf)
	for {
		got, err := Read(&out, rb, controlLimit)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p := got[0]
		if want := bytes.Repeat([]byte{p}, 1+seen[p]%64); !bytes.Equal(got, want) {
			t.Fatalf("producer %d frame %d: %x", p, seen[p], got)
		}
		seen[p]++
	}
	for p, n := range seen {
		if n != each {
			t.Fatalf("producer %d: %d of %d frames arrived", p, n, each)
		}
	}
	if f, b := st.Frames.Load(), st.Bursts.Load(); f != producers*each || b == 0 || b > f {
		t.Fatalf("stats = %d bursts, %d frames", b, f)
	}
}

// TestFrameIO checks the framing at both limits: round trip, empty body, an
// over-limit prefix rejected before any allocation, and short reads.
func TestFrameIO(t *testing.T) {
	for _, limit := range []int{controlLimit, meshLimit} {
		var buf bytes.Buffer
		w := NewWriter(&buf, nil)
		_ = w.Append(limit, body([]byte("abc")))
		_ = w.Append(limit, body(nil))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rb := new(Buf)
		if got, err := Read(&buf, rb, limit); err != nil || string(got) != "abc" {
			t.Fatalf("round trip = %q, %v", got, err)
		}
		if got, err := Read(&buf, rb, limit); err != nil || len(got) != 0 {
			t.Fatalf("empty frame = %q, %v", got, err)
		}
		if _, err := Read(&buf, rb, limit); err != io.EOF {
			t.Fatalf("end of stream: %v", err)
		}

		rb = new(Buf)
		over := binary.BigEndian.AppendUint32(nil, uint32(limit+1))
		if _, err := Read(bytes.NewReader(over), rb, limit); !errors.Is(err, ErrTooLarge) || cap(rb.B) > 64 {
			t.Fatalf("over-limit prefix: %v, buffer cap %d", err, cap(rb.B))
		}
		if _, err := Read(bytes.NewReader([]byte{0, 0}), rb, limit); err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated prefix: %v", err)
		}
		// A truncated body is an error, never a silent short read — also when
		// the stream ends exactly where a growth step does.
		for _, have := range []int{0, 2, readStep} {
			cut := append(binary.BigEndian.AppendUint32(nil, uint32(readStep+10)), make([]byte, have)...)
			if _, err := Read(bytes.NewReader(cut), rb, limit); err != io.ErrUnexpectedEOF {
				t.Fatalf("body cut at %d: %v", have, err)
			}
		}
	}
}

// TestReadMemoryFollowsBytes: four unauthenticated bytes must not buy a
// maximal allocation. A peer that sends a maximal prefix and then nothing
// costs at most one growth step; a body that does arrive is read whole.
func TestReadMemoryFollowsBytes(t *testing.T) {
	prefix := binary.BigEndian.AppendUint32(nil, meshLimit)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rb := new(Buf)
	_, err := Read(bytes.NewReader(prefix), rb, meshLimit)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("stalled body: %v", err)
	}
	if cap(rb.B) > readStep {
		t.Fatalf("a bare prefix grew the buffer to %d bytes, want at most %d", cap(rb.B), readStep)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*readStep {
		t.Fatalf("a bare prefix allocated %d bytes, want about %d", got, readStep)
	}

	big := make([]byte, 3<<20+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	// Delivered in two pieces, so the buffer grows while the body arrives.
	got, err := Read(io.MultiReader(bytes.NewReader(frameOf(big)[:100]), bytes.NewReader(frameOf(big)[100:])), rb, meshLimit)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: %d bytes, %v", len(got), err)
	}
	if cap(rb.B) > 2*len(big)+readStep {
		t.Fatalf("buffer cap %d for a %d-byte frame", cap(rb.B), len(big))
	}
}

// TestReadDropsOversizedBuffer: residency follows what is in flight — after
// a maximal frame the connection's buffer goes back under poolCap as soon as
// the next frame fits there, and stays while frames still need it.
func TestReadDropsOversizedBuffer(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(frameOf(make([]byte, controlLimit)))
	stream.Write(frameOf(make([]byte, poolCap+1)))
	stream.Write(frameOf([]byte("ten bytes!")))
	rb := new(Buf)
	if _, err := Read(&stream, rb, controlLimit); err != nil || cap(rb.B) < controlLimit {
		t.Fatalf("max frame: cap %d, %v", cap(rb.B), err)
	}
	held := cap(rb.B)
	if _, err := Read(&stream, rb, controlLimit); err != nil || cap(rb.B) != held {
		t.Fatalf("frame over poolCap: cap %d (was %d), %v", cap(rb.B), held, err)
	}
	got, err := Read(&stream, rb, controlLimit)
	if err != nil || string(got) != "ten bytes!" {
		t.Fatalf("small frame = %q, %v", got, err)
	}
	if cap(rb.B) > poolCap {
		t.Fatalf("after a 10-byte frame the buffer still holds %d bytes, want at most %d", cap(rb.B), poolCap)
	}
}

// FuzzRead: arbitrary bytes never panic the reader at either limit, a body
// is exactly the bytes behind its prefix, and the buffer never outgrows the
// input by more than one step and a doubling.
func FuzzRead(f *testing.F) {
	for _, mesh := range []bool{false, true} {
		f.Add(frameOf([]byte("\x03\x01ping")), mesh)
		f.Add(frameOf(bytes.Repeat([]byte("v"), 300)), mesh)
		f.Add([]byte{0, 0, 0, 0}, mesh)                   // empty frame
		f.Add([]byte{0, 0, 0, 5, 1, 2}, mesh)             // truncated body
		f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}, mesh) // over both limits
		f.Add([]byte{0, 0x20, 0, 0, 1, 2}, mesh)          // over the control port's only
		f.Add([]byte{0, 0}, mesh)                         // truncated prefix
	}
	f.Fuzz(func(t *testing.T, data []byte, mesh bool) {
		limit := controlLimit
		if mesh {
			limit = meshLimit
		}
		rb := new(Buf)
		got, err := Read(bytes.NewReader(data), rb, limit)
		if cap(rb.B) > 2*len(data)+readStep {
			t.Fatalf("%d input bytes grew the buffer to %d", len(data), cap(rb.B))
		}
		if err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(data))
		if n > limit || !bytes.Equal(got, data[4:4+n]) {
			t.Fatalf("prefix %d under limit %d: body %x", n, limit, got)
		}
	})
}
