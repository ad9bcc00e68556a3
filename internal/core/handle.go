package core

import (
	"context"
	"errors"

	"recmem/internal/tag"
	"recmem/internal/wire"
)

// This file implements first-class register handles: a RegisterRef is the
// register's submission queue (batch.go), resolved from its name once, so
// handle-based operations touch only pointer-stable state on the hot path.
// It also implements the §VI read-consistency selection: the regular
// register's read can be downgraded to a safe read served by the writer
// alone.

// ReadMode selects the consistency of a single read operation.
type ReadMode int

const (
	// ReadDefault is the algorithm's native read: the two-round atomic read
	// for the atomic emulations (one round under Options.OneRoundReads when
	// the majority agrees), the one-round majority read for RegularSW.
	ReadDefault ReadMode = iota
	// ReadRegular explicitly requests the regular read (RegularSW only);
	// identical to ReadDefault under that algorithm.
	ReadRegular
	// ReadSafe requests the §VI safe read (RegularSW only): one round to the
	// designated writer alone — 2 messages instead of a majority fan-out, no
	// logging. The writer's adopted value never lags a completed write, so
	// the result is even regular; the price is availability: safe reads
	// block while the writer is down, where the majority read keeps going.
	ReadSafe
)

// ErrBadConsistency is returned when a read-consistency selection is not
// available under the node's algorithm (only RegularSW has selectable
// safe/regular reads).
var ErrBadConsistency = errors.New("core: read-consistency selection requires the regular-register algorithm")

// checkReadMode validates a read-consistency selection against the node's
// algorithm.
func (nd *Node) checkReadMode(mode ReadMode) error {
	if mode != ReadDefault && !nd.proto.singleWriter {
		return ErrBadConsistency
	}
	return nil
}

// RegisterRef is a node's handle on one register, and the register's
// submission queue. Obtain one with Node.RegisterRef and reuse it, so the
// per-operation string-map lookup of the Node-level API disappears from the
// hot path.
type RegisterRef struct {
	nd  *Node
	reg string

	// Guarded by nd.mu: the submissions waiting for the next batch, the
	// batch whose executions run (a settled sub's entry is nil), and whether
	// one runs. Batches run one at a time, started inline by the push or the
	// end of the previous batch on whichever goroutine that happened.
	subs, batch []*batchSub
	running     bool
}

// RegisterRef resolves (creating on first use) the named register's handle.
// Handles are never removed, so every call for one name returns the same
// pointer and allocates nothing once the handle exists.
func (nd *Node) RegisterRef(reg string) *RegisterRef {
	nd.refsMu.Lock()
	defer nd.refsMu.Unlock()
	r := nd.refs[reg]
	if r == nil {
		r = &RegisterRef{nd: nd, reg: reg}
		nd.refs[reg] = r
	}
	return r
}

// Name returns the register name.
func (r *RegisterRef) Name() string { return r.reg }

// Node returns the node the handle operates through.
func (r *RegisterRef) Node() *Node { return r.nd }

// Write submits the write through the handle's queue and waits for it under
// the node's operation mutex — the paper's sequential process; see await for
// what a ctx that ends leaves behind. It returns the operation id, the
// minted tag — the write's tag witness (zero on failure) — and the
// incarnation epoch the operation completed under (zero on failure).
func (r *RegisterRef) Write(ctx context.Context, val []byte, obs OpObserver) (uint64, tag.Tag, uint64, error) {
	r.nd.opMu.Lock()
	defer r.nd.opMu.Unlock()
	fut, err := r.SubmitWrite(val, obs)
	if err != nil {
		return 0, tag.Tag{}, 0, err
	}
	if err := r.nd.await(ctx, fut); err != nil {
		return fut.op, tag.Tag{}, 0, err
	}
	return fut.op, fut.wit, fut.inc, nil
}

// Read is Write's counterpart, with a read-consistency selection (ReadSafe
// and ReadRegular require the RegularSW algorithm); it additionally returns
// the tag under which the returned value was adopted — the read's tag
// witness (zero on failure or for the initial value ⊥).
func (r *RegisterRef) Read(ctx context.Context, mode ReadMode, obs OpObserver) ([]byte, uint64, tag.Tag, uint64, error) {
	r.nd.opMu.Lock()
	defer r.nd.opMu.Unlock()
	fut, err := r.SubmitRead(mode, obs)
	if err != nil {
		return nil, 0, tag.Tag{}, 0, err
	}
	if err := r.nd.await(ctx, fut); err != nil {
		return nil, fut.op, tag.Tag{}, 0, err
	}
	return fut.val, fut.op, fut.wit, fut.inc, nil
}

// SubmitWrite submits an asynchronous write (see Node.SubmitWrite) straight
// onto the handle's pre-resolved register queue.
func (r *RegisterRef) SubmitWrite(val []byte, obs OpObserver) (*Future, error) {
	val = append([]byte(nil), val...) // copy once at the boundary
	return r.SubmitWriteOwned(val, obs)
}

// SubmitWriteOwned is SubmitWrite minus the defensive copy: the caller
// transfers ownership of val, which must never be mutated afterwards. The
// remote server's decoded request value is already an owned copy, so this is
// its ingest path.
func (r *RegisterRef) SubmitWriteOwned(val []byte, obs OpObserver) (*Future, error) {
	nd := r.nd
	if len(val) > wire.MaxValueSize {
		return nil, wire.ErrValueTooLarge
	}
	if nd.proto.singleWriter && nd.id != RegularWriter {
		return nil, ErrNotWriter
	}
	return nd.submit(r, false, false, val, obs)
}

// SubmitRead submits an asynchronous read (see Node.SubmitRead). Default and
// regular reads coalesce through the register's queue; safe reads bypass it —
// they are a single 2-message exchange with the writer, so there is no
// quorum round to share — and run as their own execution.
func (r *RegisterRef) SubmitRead(mode ReadMode, obs OpObserver) (*Future, error) {
	if err := r.nd.checkReadMode(mode); err != nil {
		return nil, err
	}
	return r.nd.submit(r, true, mode == ReadSafe, nil, obs)
}

// submit admits one operation and, in the same nd.mu section, hands it to
// r's queue, which starts a batch if none runs, or a safe read to its own
// execution. §VI's write mints from the writer's own view, so that view is
// loaded first, off nd.mu, and again if a crash and recovery wiped it.
func (nd *Node) submit(r *RegisterRef, read, safe bool, val []byte, obs OpObserver) (*Future, error) {
	reg, view := r.reg, !read && nd.proto.singleWriter
	for {
		if view {
			if _, _, err := nd.regView(reg); err != nil {
				return nil, err
			}
		}
		nd.mu.Lock()
		if !view {
			break
		}
		if _, ok := nd.regs[reg]; ok || nd.state != stateUp {
			break
		}
		nd.mu.Unlock()
	}
	op, epoch, err := nd.beginOpLocked(obs)
	if err != nil {
		nd.mu.Unlock()
		return nil, err
	}
	fut := newFuture(op)
	s := newSub(read, val, obs, op, epoch, fut)
	var done []completion
	if safe {
		x := nd.getExec()
		x.sub = s
		x.start(&nd.proc, execSafe, nd.newID(), op, epoch, reg)
		nd.launch(x, &done)
	} else {
		r.push(s, &done)
	}
	nd.mu.Unlock()
	fire(done)
	return fut, nil
}

// OpObserver receives callbacks where an operation's history events become
// definitive, inside the node's state lock: OnInvoke right after admission,
// OnReturn only if the process did not crash during the operation — val is
// what a read returns (nil for writes), wit the tag the protocol adopted for
// the value (zero when none, e.g. a write superseded within its batch). So
// the harness records them in an order consistent with Crash and Recover.
type OpObserver struct {
	OnInvoke func(op uint64)
	OnReturn func(op uint64, val []byte, wit tag.Tag)
}

// beginOpLocked admits a client operation on an alive process and fires
// OnInvoke. Callers hold nd.mu.
func (nd *Node) beginOpLocked(obs OpObserver) (op uint64, epoch uint64, err error) {
	switch nd.state {
	case stateUp:
	case stateClosed:
		return 0, 0, ErrClosed
	default:
		return 0, 0, ErrDown
	}
	op = nd.newID()
	if obs.OnInvoke != nil {
		obs.OnInvoke(op)
	}
	return op, nd.epoch, nil
}

// endOpLocked fires OnReturn if the operation ran to completion within its
// incarnation; one that raced with a crash is reported as ErrCrashed and
// stays pending. On success it also returns the incarnation epoch, read under
// the lock that proves the operation ran within it — a truthful witness for
// remote observers. An operation whose synchronous caller gave up (await's
// abandoned flag) completes silently: the history keeps it pending. Callers
// hold nd.mu.
func (nd *Node) endOpLocked(s *batchSub, err error, val []byte, wit tag.Tag) (uint64, error) {
	if err != nil {
		return 0, err
	}
	if nd.state != stateUp || nd.epoch != s.epoch {
		return 0, ErrCrashed
	}
	if !s.fut.abandoned {
		s.fut.replied = true
		if s.obs.OnReturn != nil {
			s.obs.OnReturn(s.op, val, wit)
		}
	}
	return nd.inc, nil
}

// await is the synchronous half of an operation: block until it completes
// or ctx ends. A caller whose ctx ends abandons the operation: it still runs,
// but endOpLocked records no reply for it. If the reply was already recorded
// the result is moments away and is returned instead of ctx.Err().
func (nd *Node) await(ctx context.Context, fut *Future) error {
	select {
	case <-fut.Done():
		return fut.err
	case <-ctx.Done():
	}
	nd.mu.Lock()
	abandon := !fut.replied
	fut.abandoned = abandon
	nd.mu.Unlock()
	if abandon {
		return ctx.Err()
	}
	<-fut.Done()
	return fut.err
}

// Write emulates the register's write operation at this process. It blocks
// until a majority acknowledges (robustness: it terminates provided the
// process does not crash and a majority is eventually permanently up) and
// returns the operation id used for accounting.
func (nd *Node) Write(ctx context.Context, reg string, val []byte, obs OpObserver) (uint64, error) {
	op, _, _, err := nd.RegisterRef(reg).Write(ctx, val, obs)
	return op, err
}

// Read emulates the register's read operation at this process: query a
// majority for tagged values, pick the highest, and write it back to a
// majority before returning it (Fig. 4 lines 31–39). In the absence of
// concurrent writes the write-back finds the timestamp already adopted
// everywhere and nobody logs — and with Options.OneRoundReads a read whose
// majority already agrees on one tag skips that round altogether. A nil
// value with ok semantics maps to the register's initial value ⊥.
func (nd *Node) Read(ctx context.Context, reg string, obs OpObserver) ([]byte, uint64, error) {
	val, op, _, _, err := nd.RegisterRef(reg).Read(ctx, ReadDefault, obs)
	return val, op, err
}
