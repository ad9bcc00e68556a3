package core

// Unit tests for the pooled, callback-driven Future (docs/adr/0010): the
// accessor before/after contract and exactly-once callback delivery on both
// sides of the completion race.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/tag"
)

func TestFutureAccessorsBeforeAndAfterCompletion(t *testing.T) {
	f := newFuture(7)
	if f.Op() != 7 {
		t.Fatalf("Op = %d, want 7", f.Op())
	}
	if _, ok := f.TagWitness(); ok {
		t.Fatal("TagWitness ok before completion")
	}
	if _, ok := f.Incarnation(); ok {
		t.Fatal("Incarnation ok before completion")
	}
	select {
	case <-f.Done():
		t.Fatal("Done closed before completion")
	default:
	}

	wit := tag.Tag{Seq: 3, Writer: 1, Rec: 2}
	f.complete([]byte("v"), wit, 9, nil)

	<-f.Done() // must be closed now
	val, err := f.Wait(context.Background())
	if err != nil || string(val) != "v" {
		t.Fatalf("Wait = %q, %v", val, err)
	}
	if w, ok := f.TagWitness(); !ok || w != wit {
		t.Fatalf("TagWitness = %v, %v", w, ok)
	}
	if inc, ok := f.Incarnation(); !ok || inc != 9 {
		t.Fatalf("Incarnation = %d, %v", inc, ok)
	}
	f.Release()
}

func TestFutureFailedOpCarriesNoWitness(t *testing.T) {
	f := newFuture(1)
	f.complete(nil, tag.Tag{}, 0, ErrCrashed)
	if _, ok := f.TagWitness(); ok {
		t.Fatal("TagWitness ok on failed op")
	}
	if _, ok := f.Incarnation(); ok {
		t.Fatal("Incarnation ok on failed op")
	}
	if _, err := f.Wait(context.Background()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Wait err = %v, want ErrCrashed", err)
	}
	f.Release()
}

func TestFutureOnDoneFiresOnceEachSide(t *testing.T) {
	// Callback registered before completion: fired by complete, with the
	// registered argument.
	f := newFuture(1)
	fired := 0
	var gotArg any
	f.OnDone(func(ff *Future, arg any) {
		fired++
		gotArg = arg
		if ff != f {
			t.Error("callback received a different future")
		}
	}, "arg-a")
	f.complete(nil, tag.Tag{}, 1, nil)
	if fired != 1 || gotArg != "arg-a" {
		t.Fatalf("callback fired %d times with arg %v", fired, gotArg)
	}
	f.Release()

	// Callback registered after completion: fired immediately, inline.
	g := newFuture(2)
	g.complete(nil, tag.Tag{}, 1, nil)
	fired = 0
	g.OnDone(func(*Future, any) { fired++ }, nil)
	if fired != 1 {
		t.Fatalf("post-completion OnDone fired %d times", fired)
	}
	g.Release()
}

func TestFutureWaitContextCancel(t *testing.T) {
	f := newFuture(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want DeadlineExceeded", err)
	}
	// Cancelling the wait abandons the wait, not the operation: completion
	// must still work and be observable.
	f.complete(nil, tag.Tag{}, 1, nil)
	if _, err := f.Wait(context.Background()); err != nil {
		t.Fatalf("Wait after completion: %v", err)
	}
	f.Release()
}

func TestFutureReleasePanicsOnPending(t *testing.T) {
	f := newFuture(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a pending future did not panic")
		}
		f.complete(nil, tag.Tag{}, 1, nil)
		f.Release()
	}()
	f.Release()
}

// TestFutureCompleteNeverFiresTheNextUse: an owner that registers after
// completion gets its callback at once and may release the future, which
// the pool hands to the next operation. The completion still on its way
// must fire neither that operation's callback nor close its channel.
func TestFutureCompleteNeverFiresTheNextUse(t *testing.T) {
	for range 2000 {
		f := newFuture(1)
		completed := make(chan struct{})
		go func() {
			f.complete(nil, tag.Tag{}, 0, nil)
			close(completed)
		}()
		for !f.done.Load() {
		}
		f.OnDone(func(*Future, any) {}, nil)
		f.Release()
		var fired atomic.Int32
		g := newFuture(2)
		g.OnDone(func(*Future, any) { fired.Add(1) }, nil)
		<-completed
		if n := fired.Load(); n != 0 {
			t.Fatalf("the first operation's completion fired the next use's callback %d times", n)
		}
		select {
		case <-g.Done():
			t.Fatal("the first operation's completion closed the next use's channel")
		default:
		}
		g.complete(nil, tag.Tag{}, 0, nil)
		if n := fired.Load(); n != 1 {
			t.Fatalf("the next use's own completion fired its callback %d times", n)
		}
		g.Release()
	}
}
