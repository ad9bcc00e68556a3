// Package history models runs of a shared-memory emulation as the paper's
// histories (§III-A): sequences of invocation, reply, crash and recovery
// events, totally ordered by the global clock. It provides well-formedness
// validation and extraction of operation executions (invocation/reply pairs
// and pending invocations).
package history

import (
	"fmt"
	"sort"

	"recmem/internal/tag"
)

// Kind classifies history events.
type Kind int

// Event kinds, matching §III-A: invocations, replies, crashes, recoveries.
const (
	Invoke Kind = iota + 1
	Return
	Crash
	Recover
)

// String returns the event kind name.
func (k Kind) String() string {
	switch k {
	case Invoke:
		return "invoke"
	case Return:
		return "return"
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// OpType distinguishes the two operations of a read/write register.
type OpType int

// Register operation types.
const (
	Read OpType = iota + 1
	Write
)

// String returns the operation type name.
func (o OpType) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Bottom is the initial value of every register (the paper's ⊥). Test
// workloads must not write Bottom.
const Bottom = ""

// Event is one entry of a history.
type Event struct {
	// Seq is the global-clock sequence number; it totally orders the
	// history. Strictly increasing across the events of a run.
	Seq int64
	// Proc is the process the event is associated with.
	Proc int32
	// Kind is the event kind.
	Kind Kind
	// Op is the operation type for Invoke/Return events.
	Op OpType
	// OpID pairs an invocation with its matching reply.
	OpID uint64
	// Reg names the object (register) of Invoke/Return events.
	Reg string
	// Value is the written value on a write invocation and the returned
	// value on a read reply; empty otherwise.
	Value string
	// At is the wall-clock capture time of the event in nanoseconds since
	// the Unix epoch, or 0 when unknown. The global observer of a simulated
	// cluster does not need it (Seq is already a total order); per-client
	// recorders on a live mesh stamp it so Merge can interleave histories.
	// Invocations are stamped before the request leaves the client and
	// replies after the response arrived, so cross-client precedence derived
	// from At is genuine whenever the recorders share a clock.
	At int64
	// Tag is the operation's tag witness on Return events: the tag the
	// emulation adopted for the written or returned value, as reported by
	// the serving process. The zero tag means "no witness" (the backend
	// could not report one, or the read returned the initial value ⊥).
	// Merge uses witnesses to order events real time cannot and to
	// cross-check that one tag never binds two values.
	Tag tag.Tag
	// Epoch is the serving node's incarnation epoch on Return events, as
	// reported by the backend (docs/adr/0006); zero when unknown. Client
	// recorders compare epochs across the replies of one node to infer
	// crash/recover events nobody injected — real process deaths.
	Epoch uint64
}

// History is a sequence of events ordered by Seq.
type History []Event

// Clone returns a copy of the history.
func (h History) Clone() History {
	out := make(History, len(h))
	copy(out, h)
	return out
}

// Restrict returns the sub-history of events on register reg (crash and
// recovery events, which are process-wide, are retained). Atomicity is a
// local property, so multi-register histories are checked per register.
func (h History) Restrict(reg string) History {
	var out History
	for _, e := range h {
		if e.Kind == Crash || e.Kind == Recover || e.Reg == reg {
			out = append(out, e)
		}
	}
	return out
}

// Registers returns the sorted set of register names appearing in h.
func (h History) Registers() []string {
	set := make(map[string]struct{})
	for _, e := range h {
		if e.Kind == Invoke || e.Kind == Return {
			set[e.Reg] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Validate checks that h is a well-formed history (§III-A): events are
// strictly ordered by Seq, and every local history is well-formed, i.e.
// (a) its first event is an invocation or a crash, (b) a crash can only be
// followed by a matching recovery event, and (c) an invocation can only be
// followed by a crash or a matching reply.
func (h History) Validate() error {
	type procState struct {
		started bool
		crashed bool
		pending uint64 // OpID of pending invocation, 0 if none
	}
	states := make(map[int32]*procState)
	var lastSeq int64
	for i, e := range h {
		if i > 0 && e.Seq <= lastSeq {
			return fmt.Errorf("history: event %d out of order (seq %d after %d)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		st := states[e.Proc]
		if st == nil {
			st = &procState{}
			states[e.Proc] = st
		}
		switch e.Kind {
		case Invoke:
			if st.crashed {
				return fmt.Errorf("history: process %d invokes while crashed (seq %d)", e.Proc, e.Seq)
			}
			if st.pending != 0 {
				return fmt.Errorf("history: process %d invokes with pending operation (seq %d)", e.Proc, e.Seq)
			}
			if e.OpID == 0 {
				return fmt.Errorf("history: invocation without OpID (seq %d)", e.Seq)
			}
			st.pending = e.OpID
			st.started = true
		case Return:
			if st.crashed {
				return fmt.Errorf("history: process %d returns while crashed (seq %d)", e.Proc, e.Seq)
			}
			if st.pending != e.OpID {
				return fmt.Errorf("history: process %d reply does not match pending invocation (seq %d)", e.Proc, e.Seq)
			}
			st.pending = 0
		case Crash:
			if !st.started {
				st.started = true
			}
			if st.crashed {
				return fmt.Errorf("history: process %d crashes twice (seq %d)", e.Proc, e.Seq)
			}
			st.crashed = true
			// A crash discards the pending invocation: it stays pending in
			// the history, but the process may invoke again after recovery.
			st.pending = 0
		case Recover:
			if !st.crashed {
				return fmt.Errorf("history: process %d recovers without crash (seq %d)", e.Proc, e.Seq)
			}
			st.crashed = false
		default:
			return fmt.Errorf("history: unknown event kind %d (seq %d)", e.Kind, e.Seq)
		}
	}
	return nil
}

// PendingRet is the Ret sentinel of an operation with no matching reply.
// It is negative — never a legal event position — so it cannot collide with
// any real reply Seq, unlike the old 0 sentinel, which a renumbered history
// (Merge starts timelines at 0-adjacent positions) could have produced.
const PendingRet = int64(-1)

// Operation is an operation execution extracted from a history: a matched
// invocation/reply pair, or a pending invocation (Ret == PendingRet).
type Operation struct {
	OpID  uint64
	Proc  int32
	Type  OpType
	Reg   string
	Value string // write: value written; read: value returned (if complete)
	Inv   int64  // Seq of the invocation event
	Ret   int64  // Seq of the reply event; PendingRet if pending
	// Tag is the reply's tag witness (zero if pending or unwitnessed).
	Tag tag.Tag
}

// Pending reports whether the operation has no matching reply.
func (o Operation) Pending() bool { return o.Ret < 0 }

// String renders the operation in the paper's W(v)/R(v) notation.
func (o Operation) String() string {
	state := ""
	if o.Pending() {
		state = "?"
	}
	if o.Type == Write {
		return fmt.Sprintf("p%d:W(%s)%s", o.Proc, o.Value, state)
	}
	return fmt.Sprintf("p%d:R(%s)%s", o.Proc, o.Value, state)
}

// Operations extracts all operation executions from h, in invocation order.
// Read invocations record the value from the matching reply.
func (h History) Operations() []Operation {
	n := 0
	for i := range h {
		if h[i].Kind == Invoke {
			n++
		}
	}
	ops, indexOf := make([]Operation, 0, n), make(map[uint64]int, n)
	for i := range h {
		e := &h[i]
		switch e.Kind {
		case Invoke:
			indexOf[e.OpID] = len(ops)
			ops = append(ops, Operation{
				OpID:  e.OpID,
				Proc:  e.Proc,
				Type:  e.Op,
				Reg:   e.Reg,
				Value: e.Value,
				Inv:   e.Seq,
				Ret:   PendingRet,
			})
		case Return:
			i, ok := indexOf[e.OpID]
			if !ok {
				continue
			}
			ops[i].Ret = e.Seq
			ops[i].Tag = e.Tag
			if ops[i].Type == Read {
				ops[i].Value = e.Value
			}
		}
	}
	return ops
}
