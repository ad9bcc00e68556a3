package core

import "sync"

// drainer is the body of a drainQueue's goroutine: it takes batches until
// take returns none, and then returns.
type drainer interface{ drain() }

// drainQueue is a FIFO drained on demand by at most one goroutine: the
// engine's per-register dispatchers, the outbox and the node's logger are its
// three users (docs/adr/0018, 0019). The push that finds the queue idle starts
// owner.drain; take hands it the oldest items and marks the queue idle once
// it finds it empty, so whatever is pushed while a batch is being handled
// forms the next batch — group commit with no timer. drop discards what is
// queued (a crash loses volatile state) but not the batch a drainer holds.
//
// One buffer, consumed from the front: items[:head] is the batch last taken,
// which the drainer may read until its next take but never write (a push
// that grows the buffer copies it meanwhile), and items[head:] is queued. Each
// take drops the previous batch's references and moves the queued items to
// the front, so a backlog is held once and a steady push/take cycle reuses
// warm capacity without allocating.
type drainQueue[T any] struct {
	mu      sync.Mutex
	items   []T
	head    int
	running bool
	owner   drainer
}

// push queues items, in order, and starts the drainer if none is running.
func (q *drainQueue[T]) push(items ...T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, items...)
	if len(items) > 0 && !q.running {
		q.running = true
		go q.owner.drain()
	}
}

// take returns the oldest queued items, at most max of them (max ≤ 0: all),
// as a read-only batch valid until the drainer's next take. An empty result
// means the queue was empty: the drainer must return, and the next push
// starts a new one.
func (q *drainQueue[T]) take(max int) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := copy(q.items, q.items[q.head:])
	clear(q.items[n:])
	q.items, q.head = q.items[:n], 0
	if n == 0 {
		q.running = false
		return nil
	}
	if max > 0 {
		n = min(n, max)
	}
	q.head = n
	return q.items[:n:n]
}

// queued reports how many items wait behind the batch being handled.
func (q *drainQueue[T]) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// drop discards every queued item, handing each to settle first. A running
// drainer keeps the batch it holds and finds the queue empty at its next
// take.
func (q *drainQueue[T]) drop(settle func(T)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.items[q.head:] {
		settle(it)
	}
	clear(q.items[q.head:])
	q.items = q.items[:q.head]
}
