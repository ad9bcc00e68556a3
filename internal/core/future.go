package core

import (
	"context"
	"sync"
	"sync/atomic"

	"recmem/internal/tag"
)

// This file implements the engine's completion primitive (docs/adr/0010), a
// callback-driven, pooled Future:
//
//   - OnDone registers a completion callback, fired exactly once when the
//     operation completes — or at once, if it already has. A static function
//     plus an opaque argument, so registering one allocates nothing.
//   - Completion is field writes and one atomic store under the mutex, then
//     one channel close; a waiter takes no lock, the done flag orders the
//     result fields.
//   - Futures come from a sync.Pool; the per-use done channel is allocated
//     on the submitter's goroutine.
//
// Ownership rule: only the future's sole owner may Release it, after
// completion. The engine never does; the remote server releases in its
// OnDone callback, everyone else leaves the future to the garbage collector.

// futurePool recycles completed futures across submissions; see Release.
var futurePool = sync.Pool{New: func() any { return &Future{} }}

// closedCh is the pre-closed channel Done returns for already-completed
// futures, so a waiter that arrives after completion never touches the
// per-use channel (which a Release may have already dropped).
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Future is the pending result of a submitted operation. It completes when
// the operation's quorum rounds commit (or fail); an operation interrupted
// by a crash completes with ErrCrashed and its invocation stays pending in
// the history, exactly like its synchronous counterpart.
type Future struct {
	op   uint64
	done atomic.Bool
	ch   chan struct{} // per-use; allocated in newFuture, dropped on Release

	mu   sync.Mutex // guards cb/cbID and the recycle zeroing
	cb   func(*Future, any)
	cbID any

	// Result fields: written by complete before the done store, read only
	// after observing done (via the flag, the channel, or the callback).
	val []byte
	wit tag.Tag
	inc uint64
	err error

	// replied and abandoned are the hand-off between endOp and a synchronous
	// caller that stops waiting (Node.await), both guarded by the owning
	// node's mu: endOpLocked sets replied when it records the history reply and
	// records none once abandoned is set.
	replied, abandoned bool
}

// newFuture takes a future from the pool and binds it to the operation. The
// done channel is allocated here, on the submitter's goroutine, so neither
// waiters nor the completing goroutine ever pay for it.
func newFuture(op uint64) *Future {
	f := futurePool.Get().(*Future)
	f.op = op
	if f.ch == nil {
		f.ch = make(chan struct{})
	}
	return f
}

// Op returns the operation id, usable for accounting as soon as the future
// is created.
func (f *Future) Op() uint64 { return f.op }

// Done returns a channel closed when the operation completes. A future that
// already completed answers with a shared pre-closed channel; a pending one
// hands out its per-use channel, closed by complete.
func (f *Future) Done() <-chan struct{} {
	if f.done.Load() {
		return closedCh
	}
	return f.ch
}

// Wait blocks until the operation completes or ctx is done. For reads the
// returned value is the register's value (nil is the initial value ⊥); for
// writes it is nil. Cancelling ctx abandons the wait, not the operation.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	if f.done.Load() {
		return f.val, f.err
	}
	select {
	case <-f.ch:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TagWitness returns the operation's tag witness once the future is done:
// the tag the protocol adopted for the written or returned value. ok is
// false before completion and for operations without a witness (a failed
// operation, or a coalesced write whose value was superseded within its
// batch — only the batch's surviving value carries the minted tag, because
// a tag names exactly one committed value).
func (f *Future) TagWitness() (wit tag.Tag, ok bool) {
	if !f.done.Load() {
		return tag.Tag{}, false
	}
	return f.wit, !f.wit.IsZero()
}

// Incarnation returns the node incarnation epoch the operation completed
// under (docs/adr/0006), once the future is done. ok is false before
// completion and for failed operations, which never witness an epoch. Unlike
// the tag witness, every successful operation carries one — including a
// coalesced write whose value was superseded within its batch: its
// acknowledgement still happened in a specific incarnation.
func (f *Future) Incarnation() (epoch uint64, ok bool) {
	if !f.done.Load() {
		return 0, false
	}
	return f.inc, f.err == nil && f.inc != 0
}

// OnDone registers cb to run exactly once when the operation completes,
// with the future and arg — fired from complete on the goroutine that ended
// the operation's execution (the node's listener or logger, mostly), or
// immediately on this goroutine if the operation already finished. The
// static-function-plus-argument shape exists so the hot path registers a
// completion without allocating a closure. At most one callback may be
// registered per operation; the callback must not block (the node's
// listener or logger waits for it) and is the natural place for a sole
// owner to Release the future.
//
// Exactly-once is the mutex's job: the done check and the registration are
// one critical section, and complete collects the callback under the same
// mutex after publishing done — every interleaving fires the callback from
// exactly one side.
func (f *Future) OnDone(cb func(*Future, any), arg any) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		cb(f, arg)
		return
	}
	if f.cb != nil {
		f.mu.Unlock()
		panic("core: Future.OnDone registered twice")
	}
	f.cb, f.cbID = cb, arg
	f.mu.Unlock()
}

// complete resolves the future: record the outcome, fire the registered
// callback, release blocked waiters. Called exactly once per use, by fire,
// after the node released its lock. The done store and the hand-off of the
// callback share one f.mu section: the moment done is visible, an OnDone may
// fire its callback itself, whose owner may Release the future and reuse it
// for another operation, so neither that operation's callback nor its
// channel may be read afterwards.
func (f *Future) complete(val []byte, wit tag.Tag, inc uint64, err error) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		panic("core: Future completed twice")
	}
	f.val, f.wit, f.inc, f.err = val, wit, inc, err
	f.done.Store(true)
	ch, cb, arg := f.ch, f.cb, f.cbID
	f.cb, f.cbID = nil, nil
	f.mu.Unlock()
	close(ch)
	if cb != nil {
		cb(f, arg)
	}
}

// Release returns a completed future to the pool. Only the future's sole
// owner may call it, and only after completion: any leftover alias would
// silently read the next operation. Releasing a pending future is a
// programming error.
func (f *Future) Release() {
	if !f.done.Load() {
		panic("core: Release of a pending Future")
	}
	f.mu.Lock()
	f.op, f.val, f.wit, f.inc, f.err = 0, nil, tag.Tag{}, 0, nil
	f.replied, f.abandoned = false, false
	f.ch = nil
	f.mu.Unlock()
	f.done.Store(false)
	futurePool.Put(f)
}
