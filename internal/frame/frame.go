// Package frame is the one place that knows the framing both TCP surfaces
// speak — the control port (remote) and the mesh (internal/nettcp):
//
//	frame := u32 big-endian body length | body
//
// It owns the buffer pool, the reader that reuses one buffer per connection
// and the writer that coalesces whatever queued while the previous write
// system call was in flight (docs/adr/0013). Body codecs stay with their
// packages; they append into the buffers handed out here.
package frame

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

const (
	prefixLen = 4
	// poolCap is the largest capacity a buffer may keep once nothing in
	// flight needs it: a rare maximal frame goes back to the allocator
	// instead of staying resident for the life of a connection or the pool.
	poolCap = 256 << 10
	// readStep bounds what Read allocates ahead of the bytes that arrived.
	readStep = 64 << 10
)

// ErrTooLarge reports a frame body over the caller's limit.
var ErrTooLarge = errors.New("frame: body exceeds the frame limit")

// Buf is a pooled byte buffer, owned by one goroutine between Get and Put.
type Buf struct{ B []byte }

var pool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 4096)} }}

// Get returns an empty buffer from the pool.
func Get() *Buf { return pool.Get().(*Buf) }

// Put recycles b unless it grew past poolCap.
func Put(b *Buf) {
	if cap(b.B) > poolCap {
		return
	}
	b.B = b.B[:0]
	pool.Put(b)
}

// Read reads one frame from r into b and returns its body. The body aliases
// b: it is valid until the next Read on b, so decoders copy out what they
// keep. A prefix over limit fails before anything is allocated; below it,
// memory follows the bytes received — b grows by at most readStep, or
// doubles, ahead of what has arrived — and a body cut short is
// io.ErrUnexpectedEOF. A buffer over poolCap is dropped as soon as the next
// frame does not need it.
func Read(r io.Reader, b *Buf, limit int) ([]byte, error) {
	hdr := append(b.B[:0], 0, 0, 0, 0) // in b, so that no prefix costs an allocation
	b.B = hdr
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > limit {
		return nil, ErrTooLarge
	}
	buf := hdr[:0]
	if cap(buf) > poolCap && n <= poolCap {
		buf = nil
	}
	for len(buf) < n {
		end := min(n, max(cap(buf), 2*len(buf), len(buf)+readStep))
		if end > cap(buf) {
			// At least double a small buffer, so frames that creep up in
			// size do not reallocate one by one.
			grown := max(end, min(2*cap(buf), poolCap))
			buf = append(make([]byte, 0, grown), buf...)
		}
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			b.B = buf
			return nil, err
		}
		buf = buf[:end]
	}
	b.B = buf
	return buf, nil
}

// Stats counts what writers put on their sockets: Bursts is the number of
// Write calls, Frames the frames they carried, so Frames/Bursts is the
// coalescing ratio. One Stats may be shared by many writers.
type Stats struct{ Bursts, Frames atomic.Uint64 }

// Writer puts frames from any number of producers onto one io.Writer.
// Producers encode in place into the pending buffer (Append). One flusher at
// a time — a caller of Flush, or the goroutine Kick starts — swaps the
// pending buffer out and issues one Write for everything queued, again until
// nothing is: frames queued while a Write is in flight ride the next one, and
// only the flusher ever blocks on the socket. The first write error is sticky.
type Writer struct {
	w     io.Writer
	stats *Stats
	run   func()         // flushQueued, bound once so that Kick allocates nothing
	wg    sync.WaitGroup // the goroutine Kick started, waited for by Close

	mu       sync.Mutex
	pend     *Buf   // frames queued for the next Write; taken from the pool
	queued   uint64 // frames in pend
	flushing bool
	err      error
}

// NewWriter returns a writer on w counting into stats (nil: nobody reads
// the counters).
func NewWriter(w io.Writer, stats *Stats) *Writer {
	if stats == nil {
		stats = new(Stats)
	}
	fw := &Writer{w: w, stats: stats}
	fw.run = fw.flushQueued
	return fw
}

// Append queues one frame: enc appends the body behind a reserved prefix,
// which is patched afterwards. enc is handed the whole pending batch, so it
// may refuse a frame that would overfill it. If enc fails or the body
// exceeds limit the pending buffer stays at its old length and the error is
// returned. On a failed writer the frame is dropped, as the dead socket
// would have, and Flush reports the error.
func (w *Writer) Append(limit int, enc func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil
	}
	if w.pend == nil {
		w.pend = Get()
	}
	mark := len(w.pend.B)
	buf, err := enc(append(w.pend.B, 0, 0, 0, 0))
	if err != nil {
		return err
	}
	n := len(buf) - mark - prefixLen
	if n > limit {
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf[mark:], uint32(n))
	w.pend.B = buf
	w.queued++
	return nil
}

// Flush writes everything queued on the caller's goroutine unless a flusher
// already runs (it will carry it), and returns the writer's sticky error.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.flushing {
		return w.err
	}
	return w.drain()
}

// Kick is Flush for callers that must never block on a socket: if frames
// are queued and no flusher runs, it starts one goroutine that writes until
// nothing is pending and exits (docs/adr/0020). On a failed write it closes
// the io.Writer if that is an io.Closer, so the connection's reader sees it.
func (w *Writer) Kick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.flushing && w.queued > 0 {
		w.flushing = true
		w.wg.Add(1)
		go w.run()
	}
}

func (w *Writer) flushQueued() {
	defer w.wg.Done()
	w.mu.Lock()
	err := w.drain()
	w.mu.Unlock()
	if c, ok := w.w.(io.Closer); ok && err != nil {
		_ = c.Close()
	}
}

// drain is the flusher's loop; it is entered and left holding mu.
func (w *Writer) drain() error {
	w.flushing = true
	for w.err == nil && w.queued > 0 {
		out, n := w.pend, w.queued
		w.pend, w.queued = nil, 0
		w.mu.Unlock()
		w.stats.Bursts.Add(1)
		w.stats.Frames.Add(n)
		_, err := w.w.Write(out.B)
		Put(out)
		w.mu.Lock()
		if err != nil {
			w.fail(err)
		}
	}
	w.flushing = false
	return w.err
}

// Close fails the writer — queued and later frames are dropped — and returns
// once the goroutine Kick started, if any, has exited.
func (w *Writer) Close() {
	w.mu.Lock()
	w.fail(io.ErrClosedPipe)
	w.mu.Unlock()
	w.wg.Wait()
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	if w.pend != nil {
		Put(w.pend)
		w.pend, w.queued = nil, 0
	}
}
