package history

import (
	"fmt"
	"sync"
	"time"

	"recmem/internal/tag"
)

// ClientRecorder records the history one live-mesh client observes: its own
// invocations, replies, crashes and recoveries, stamped on the local wall
// clock for Merge. Unlike the simulated cluster's global Recorder, a client
// recorder learns about outcomes only through replies, so the recorded
// history must stay well-formed under every arrival order. The rules:
//
//   - A synchronous operation of an up process is attributed to the real
//     process id and recorded invoke→reply like the simulator's.
//   - Concurrent (asynchronous) submissions are attributed to fresh
//     one-shot virtual clients, exactly like the simulated cluster's
//     batching engine: the paper's processes are sequential, so a client
//     multiplexing in-flight operations models a population of independent
//     clients each invoking once.
//   - An operation whose failure proves it never executed (admission
//     rejection; any failed read — reads do not change the register) is
//     erased: the invocation never happened.
//   - An operation whose fate is unknown (crash, timeout, transport
//     failure) stays pending forever — reattributed to a one-shot virtual
//     client if it held the real process id, so the next real invocation is
//     not blocked by it. This only removes precedence edges, which is
//     always sound: the checkers may drop or float an unbounded pending
//     write, never demand one.
//   - A success reply that arrives after the client recorded its process's
//     crash (the server completed the operation before the crash point, the
//     replies raced) is likewise reattributed to a virtual client rather
//     than forged into the pre-crash past.
//
// Replies additionally carry the serving node's incarnation epoch
// (docs/adr/0006), and the recorder compares it across replies to observe
// deaths nobody injected:
//
//   - An epoch that advances between two same-cycle replies, without an
//     injected crash explaining it, proves the node crashed and recovered in
//     between: the recorder places a Crash and a Recover event at the
//     observation point and bumps its crash cycle, so the triggering reply
//     (which straddles the inferred crash) is reattributed to a virtual
//     client like any reply racing a recorded crash.
//   - An epoch that fails to advance past the pre-crash epoch after a
//     recorded crash, or regresses outright, is a protocol violation — the
//     node (or an impostor serving its old storage) is replaying a stale
//     incarnation — reported through EpochViolation and failing Merged.
//
// Safe for concurrent use.
type ClientRecorder struct {
	proc  int32
	vproc func() int32
	now   func() time.Time

	mu          sync.Mutex
	events      []*Event
	nextOp      uint64
	down        bool
	crashes     int // crash events recorded so far (the crash epoch)
	realPending bool
	ops         map[uint64]*openOp // open invocations by op id

	// Incarnation-epoch tracking (docs/adr/0006).
	lastEpoch     uint64 // highest epoch observed in replies so far
	epochFloor    uint64 // epoch at the last recorded crash; post-crash replies must exceed it
	expectAdvance bool   // a recorded crash/recover cycle will explain the next advance
	epochErr      error  // sticky epoch violation
}

// openOp is an invocation awaiting its outcome: the invocation event and
// the crash epoch it was recorded in, so a reply that raced past a whole
// crash/recover cycle is still detected (down alone misses it).
type openOp struct {
	ev      *Event
	crashes int
}

// NewClientRecorder returns a recorder for one client attributed to process
// proc. virtualProc allocates process ids for one-shot virtual clients; it
// must never return an id any recorder of the run uses as a real id (share
// one allocator across the run's recorders).
func NewClientRecorder(proc int32, virtualProc func() int32) *ClientRecorder {
	return &ClientRecorder{
		proc:  proc,
		vproc: virtualProc,
		now:   time.Now,
		ops:   make(map[uint64]*openOp),
	}
}

// Proc returns the real process id the recorder attributes sequential
// operations to.
func (r *ClientRecorder) Proc() int32 { return r.proc }

// Invoke records an operation invocation and returns its id. For writes,
// value is the value being written. concurrent marks an asynchronous
// submission, attributed to a fresh one-shot virtual client; sequential
// invocations use the real process id unless the process is believed down
// (or an earlier real invocation is still unresolved), in which case they
// go virtual too — the program-order edge cannot be proven from here.
func (r *ClientRecorder) Invoke(typ OpType, reg, value string, concurrent bool) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	id := r.nextOp
	proc := r.proc
	virtual := concurrent || r.down || r.realPending
	if virtual {
		proc = r.vproc()
	} else {
		r.realPending = true
	}
	ev := &Event{Proc: proc, Kind: Invoke, Op: typ, OpID: id, Reg: reg, Value: value,
		At: r.now().UnixNano()}
	r.events = append(r.events, ev)
	r.ops[id] = &openOp{ev: ev, crashes: r.crashes}
	return id
}

// Return records the successful reply of invocation id: value is the read
// result ("" for writes), wit the tag witness the server reported (zero if
// none), epoch the serving node's incarnation epoch (zero if the backend
// cannot report one, which disables epoch inference for this reply). A reply
// arriving after the process's recorded crash — whether the process is still
// down or has already recovered — is reattributed to a one-shot virtual
// client (see the type comment); so is a reply whose epoch itself reveals an
// unrecorded crash.
func (r *ClientRecorder) Return(id uint64, value string, wit tag.Tag, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.ops[id]
	if op == nil {
		return
	}
	delete(r.ops, id)
	inv := op.ev
	// Epoch inference runs before reattribution: an inferred crash bumps
	// r.crashes, which makes the reattribution below virtualize this very
	// reply — it completed in the incarnation after the inferred crash.
	r.observeEpoch(epoch, op)
	if inv.Proc == r.proc {
		r.realPending = false
		if r.down || r.crashes != op.crashes {
			inv.Proc = r.vproc()
		}
	}
	r.events = append(r.events, &Event{Proc: inv.Proc, Kind: Return, Op: inv.Op,
		OpID: id, Reg: inv.Reg, Value: value, Tag: wit, Epoch: epoch,
		At: r.now().UnixNano()})
}

// observeEpoch folds one reply's incarnation epoch into the recorder's
// tracking: inference of unrecorded crashes and detection of stale-epoch
// violations. Called with r.mu held, before the reply's reattribution check.
func (r *ClientRecorder) observeEpoch(epoch uint64, op *openOp) {
	if epoch == 0 {
		return
	}
	if op.crashes != r.crashes || r.down {
		// A straggler from before a recorded crash (or a reply racing the
		// recorded down state): its epoch proves nothing about the current
		// incarnation, so no checks and no inference — only keep the
		// high-water mark honest.
		if epoch > r.lastEpoch {
			r.lastEpoch = epoch
		}
		return
	}
	switch {
	case r.lastEpoch == 0:
		// First epoch ever observed: nothing to hold it against.
		r.expectAdvance = false
		r.lastEpoch = epoch
	case epoch < r.lastEpoch:
		r.setEpochErr(epoch)
	case epoch == r.lastEpoch:
		// Same incarnation — unless a crash was recorded since the epoch was
		// observed, in which case the node was required to mint past it.
		if r.epochFloor > 0 && epoch <= r.epochFloor {
			r.setEpochErr(epoch)
		}
	default: // epoch > r.lastEpoch
		if r.expectAdvance {
			// The advance is explained by the crash/recover cycle already
			// recorded (every recovery mints a fresh epoch).
			r.expectAdvance = false
		} else {
			// Unrecorded death: the node crashed and recovered between two
			// replies without anybody injecting it. Place the cycle at the
			// observation point — the reply that revealed it completed after
			// the recovery, and is virtualized by the crash-cycle bump.
			now := r.now().UnixNano()
			r.epochFloor = r.lastEpoch
			r.crashes++
			r.events = append(r.events,
				&Event{Proc: r.proc, Kind: Crash, At: now},
				&Event{Proc: r.proc, Kind: Recover, At: now})
		}
		r.lastEpoch = epoch
	}
}

// setEpochErr records the sticky epoch violation.
func (r *ClientRecorder) setEpochErr(epoch uint64) {
	if r.epochErr == nil {
		r.epochErr = fmt.Errorf("history: epoch violation at process %d: reply carries incarnation epoch %d, not past %d (floor %d) — the node regressed or failed to bump its incarnation on restart",
			r.proc, epoch, r.lastEpoch, r.epochFloor)
	}
}

// EpochViolation returns the sticky incarnation-epoch violation, if any: a
// reply whose epoch regressed or failed to advance past a recorded crash.
// RecordingGroup.Merged surfaces it before verification.
func (r *ClientRecorder) EpochViolation() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochErr
}

// AbortFate classifies a failed operation for Abort.
type AbortFate int

const (
	// AbortRejected: the failure proves the operation never executed
	// (admission rejection such as ErrDown or ErrNotWriter — or any failed
	// read, which has no effect to verify). The invocation is erased.
	AbortRejected AbortFate = iota + 1
	// AbortUnknown: the operation may or may not have taken effect (crash,
	// timeout, transport failure). The invocation stays pending forever, on
	// a one-shot virtual client if it held the real process id.
	AbortUnknown
)

// Abort resolves invocation id without a reply.
func (r *ClientRecorder) Abort(id uint64, fate AbortFate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.ops[id]
	if op == nil {
		return
	}
	delete(r.ops, id)
	inv := op.ev
	if inv.Proc == r.proc {
		r.realPending = false
	}
	switch fate {
	case AbortRejected:
		inv.Kind = 0 // tombstone; dropped from snapshots
	default:
		if inv.Proc == r.proc {
			inv.Proc = r.vproc()
		}
	}
}

// Crash records a confirmed crash of the real process. Call it only when
// the crash is acknowledged (the injection succeeded); a duplicate is
// ignored.
func (r *ClientRecorder) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return
	}
	r.down = true
	r.crashes++
	// The crash obligates the node's next incarnation to mint past every
	// epoch observed so far; the matching advance is already explained.
	r.epochFloor = r.lastEpoch
	r.expectAdvance = true
	r.events = append(r.events, &Event{Proc: r.proc, Kind: Crash, At: r.now().UnixNano()})
}

// Recover records a confirmed recovery of the real process; ignored if no
// crash is recorded.
func (r *ClientRecorder) Recover() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.down {
		return
	}
	r.down = false
	r.events = append(r.events, &Event{Proc: r.proc, Kind: Recover, At: r.now().UnixNano()})
}

// History snapshots the recorded events on a local 1..n timeline, ready for
// Merge.
func (r *ClientRecorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(History, 0, len(r.events))
	for _, ev := range r.events {
		if ev.Kind == 0 {
			continue
		}
		e := *ev
		e.Seq = int64(len(out) + 1)
		out = append(out, e)
	}
	return out
}
