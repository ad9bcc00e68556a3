package history

import (
	"sync"
	"sync/atomic"

	"recmem/internal/tag"
)

// Recorder accumulates the events of a run, numbered in the order it records
// them: the paper's fictional global clock, a device outside the processes
// that totally orders the events of a run. It is the harness-side observer
// the paper's model assumes: the processes never read it. Safe for
// concurrent use.
type Recorder struct {
	nextOp atomic.Uint64

	mu     sync.Mutex
	events History
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Invoke records an operation invocation and returns the OpID that must be
// passed to Return. For writes, value is the value being written.
func (r *Recorder) Invoke(proc int32, op OpType, reg, value string) uint64 {
	id := r.nextOp.Add(1)
	r.append(Event{Proc: proc, Kind: Invoke, Op: op, OpID: id, Reg: reg, Value: value})
	return id
}

// InvokeWithID records an invocation under a caller-chosen OpID (e.g. the
// protocol's own operation identifier). The id must be unique and non-zero.
func (r *Recorder) InvokeWithID(proc int32, op OpType, id uint64, reg, value string) {
	r.append(Event{Proc: proc, Kind: Invoke, Op: op, OpID: id, Reg: reg, Value: value})
}

// Return records the matching reply for a previous invocation. For reads,
// value is the value returned.
func (r *Recorder) Return(proc int32, op OpType, opID uint64, reg, value string) {
	r.append(Event{Proc: proc, Kind: Return, Op: op, OpID: opID, Reg: reg, Value: value})
}

// ReturnTagged is Return carrying the operation's tag witness (the tag the
// emulation adopted for the written or returned value); the zero tag means
// no witness was available.
func (r *Recorder) ReturnTagged(proc int32, op OpType, opID uint64, reg, value string, wit tag.Tag) {
	r.append(Event{Proc: proc, Kind: Return, Op: op, OpID: opID, Reg: reg, Value: value, Tag: wit})
}

// Crash records a crash event of proc.
func (r *Recorder) Crash(proc int32) {
	r.append(Event{Proc: proc, Kind: Crash})
}

// Recover records a recovery event of proc.
func (r *Recorder) Recover(proc int32) {
	r.append(Event{Proc: proc, Kind: Recover})
}

func (r *Recorder) append(e Event) {
	// The number and the append happen under one lock, so the recorded
	// order is the numbered order even under concurrency.
	r.mu.Lock()
	e.Seq = int64(len(r.events)) + 1
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// History returns a snapshot of the events recorded so far, in order.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Clone()
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
