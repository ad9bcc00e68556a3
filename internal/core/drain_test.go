package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/stable"
	"recmem/internal/wire"
)

// idleDrainer is a drainer that takes nothing: the queue it owns stays
// marked running, so a test drives take itself.
type idleDrainer struct{}

func (idleDrainer) drain() {}

// TestDrainQueueFIFO: items come out in push order, take honours its
// maximum, what is pushed after a take queues behind what was left, and the
// empty take marks the queue idle. (The logger's bound lives in
// adopter.admit: TestLoggerBoundCountsEnvelopes.)
func TestDrainQueueFIFO(t *testing.T) {
	q := &drainQueue[int]{owner: idleDrainer{}}
	q.push(1, 2, 3)
	q.push(4, 5)
	if got := q.take(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("take(2) = %v, want [1 2]", got)
	}
	q.push(6)
	if got := q.take(0); len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("take(0) = %v, want [3 4 5 6]", got)
	}
	if got := q.take(0); got != nil || q.running {
		t.Fatalf("take of an empty queue = %v, running %v; want nil, idle", got, q.running)
	}
}

// countingDrainer drains a drainQueue[int] of (producer, seq) pairs packed
// as producer<<32|seq, checking that no two drainers ever handle a batch at
// once and that each producer's items arrive in order.
type countingDrainer struct {
	q        *drainQueue[int]
	active   atomic.Int32
	overlap  atomic.Bool
	disorder atomic.Bool
	mu       sync.Mutex
	last     map[int]int
	total    int
	want     int
	done     chan struct{}
}

func (c *countingDrainer) drain() {
	for {
		batch := c.q.take(0)
		if len(batch) == 0 {
			return
		}
		if c.active.Add(1) != 1 {
			c.overlap.Store(true)
		}
		c.mu.Lock()
		for _, v := range batch {
			p, seq := v>>32, v&(1<<32-1)
			if prev, ok := c.last[p]; ok && seq != prev+1 {
				c.disorder.Store(true)
			}
			c.last[p] = seq
		}
		c.total += len(batch)
		if c.total == c.want {
			close(c.done)
		}
		c.mu.Unlock()
		runtime.Gosched()
		c.active.Add(-1)
	}
}

// TestDrainQueueOneDrainer: eight concurrent pushers on one queue; at most
// one drainer ever handles a batch, every item arrives, and each pusher's
// items arrive in its order. Run it under -race.
func TestDrainQueueOneDrainer(t *testing.T) {
	const pushers, each = 8, 2000
	c := &countingDrainer{last: map[int]int{}, want: pushers * each, done: make(chan struct{})}
	c.q = &drainQueue[int]{owner: c}
	var wg sync.WaitGroup
	for p := range pushers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range each {
				c.q.push(p<<32 | seq)
			}
		}()
	}
	wg.Wait()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.mu.Lock()
		defer c.mu.Unlock()
		t.Fatalf("%d of %d items drained", c.total, c.want)
	}
	if c.overlap.Load() {
		t.Fatal("two drainers handled batches at once")
	}
	if c.disorder.Load() {
		t.Fatal("a pusher's items arrived out of order")
	}
}

// heldDrainer takes one batch, reports it and holds it until released.
type heldDrainer struct {
	q       *drainQueue[int]
	taken   chan []int
	release chan struct{}
	after   chan []int
}

func (h *heldDrainer) drain() {
	batch := h.q.take(0)
	h.taken <- append([]int(nil), batch...)
	<-h.release
	h.after <- append([]int(nil), batch...)
	h.after <- h.q.take(0)
}

// TestDrainQueueDropKeepsHeldBatch: drop empties the queue, settling each
// queued item once, but leaves the batch a running drainer holds intact; the
// drainer's next take finds the queue empty and marks it idle, and the next
// push starts a new drainer.
func TestDrainQueueDropKeepsHeldBatch(t *testing.T) {
	h := &heldDrainer{taken: make(chan []int, 1), release: make(chan struct{}), after: make(chan []int, 2)}
	h.q = &drainQueue[int]{owner: h}
	h.q.push(1, 2)
	<-h.taken
	h.q.push(3, 4)
	var settled []int
	h.q.drop(func(v int) { settled = append(settled, v) })
	if n := h.q.queued(); n != 0 || len(settled) != 2 || settled[0] != 3 || settled[1] != 4 {
		t.Fatalf("%d items queued after drop, %v settled; want 0, [3 4]", n, settled)
	}
	close(h.release)
	if held := <-h.after; len(held) != 2 || held[0] != 1 || held[1] != 2 {
		t.Fatalf("held batch after drop = %v, want [1 2]", held)
	}
	if next := <-h.after; next != nil {
		t.Fatalf("take after drop = %v, want nothing", next)
	}
	h.q.push(5) // release stays closed: the new drainer runs straight through
	if got := <-h.taken; len(got) != 1 || got[0] != 5 {
		t.Fatalf("new drainer took %v, want [5]", got)
	}
	<-h.after
	<-h.after
}

// TestDrainQueueSteadyStateAllocs: once warm, a push/take cycle allocates
// nothing — the taken batch's room is reused by the next pushes.
func TestDrainQueueSteadyStateAllocs(t *testing.T) {
	q := &drainQueue[*batchSub]{owner: idleDrainer{}}
	a, b := &batchSub{}, &batchSub{}
	cycle := func() {
		q.push(a)
		q.push(b)
		if len(q.take(0)) != 2 {
			t.Fatal("lost an item")
		}
	}
	cycle() // warm: the first push starts the (idle) drainer and grows the buffer
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("push/take cycle allocates %.1f times, want 0", allocs)
	}
}

// TestOutboxOneFramePerDestination: k sweeps staged to three destinations,
// interleaved, leave as exactly three batch frames, each carrying its
// destination's envelopes in staging order.
func TestOutboxOneFramePerDestination(t *testing.T) {
	const self, k = 0, 4
	rec := &recordEndpoint{id: self, in: make(chan wire.Envelope), sent: make(chan struct{}, 3*k)}
	p := newPipeNode(t, self, Persistent, stable.NewMemDisk(stable.Profile{}), rec)
	defer close(rec.in)

	var sweeps []wire.Envelope
	for i := range k {
		for to := range int32(3) {
			sweeps = append(sweeps, wire.Envelope{Kind: wire.KindRead, To: to, Reg: "x", RPC: uint64(i + 1)})
		}
	}
	p.nd.ob.push(sweeps...)
	for i := range 3 * k {
		select {
		case <-rec.sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d envelopes sent", i, 3*k)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.sends) != 0 || len(rec.batches) != 3 {
		t.Fatalf("%d single sends and %d batch frames, want 0 and 3", len(rec.sends), len(rec.batches))
	}
	for _, b := range rec.batches {
		if len(b) != k {
			t.Fatalf("frame to %d carries %d envelopes, want %d", b[0].To, len(b), k)
		}
		for i, env := range b {
			if env.To != b[0].To || env.From != self || env.RPC != uint64(i+1) {
				t.Fatalf("frame to %d: envelope %d = %v", b[0].To, i, env)
			}
		}
	}
}
