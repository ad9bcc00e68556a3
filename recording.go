package recmem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"recmem/internal/atomicity"
	"recmem/internal/history"
	"recmem/internal/wire"
)

// This file implements live-mesh history verification (docs/adr/0004): a
// Recording wrapper turns any Client — a simulated Process or a remote.Dial
// connection — into a client that records the history it observes, and a
// RecordingGroup merges the per-client histories onto one timeline (ordered
// by wall clock where unambiguous, by the protocol's tag witnesses where
// not) and feeds the same atomicity checkers the simulator uses. Remote
// runs, which have no global observer, become verifiable: this closes the
// PR-3 gap where a live mesh was exercised but never checked.

// RecordingVirtualBase is the first process id RecordingGroup hands to
// one-shot virtual clients (asynchronous submissions, operations of unknown
// fate). Real recorded processes always sit below it, so the two id ranges
// never collide.
const RecordingVirtualBase = 1 << 20

// RecordingGroup coordinates the Recording wrappers of one run: it assigns
// each wrapped client a process id, shares the virtual-client id allocator,
// and merges the recorded histories for verification. A run of several
// rounds keeps one group: Verify checks everything recorded so far, so a
// later round's reads are judged against every earlier round's writes.
type RecordingGroup struct {
	mu      sync.Mutex
	wrapped map[Client]*Recording
	order   []*Recording
	virt    atomic.Int32
}

// NewRecordingGroup returns an empty group.
func NewRecordingGroup() *RecordingGroup {
	g := &RecordingGroup{wrapped: make(map[Client]*Recording)}
	g.virt.Store(RecordingVirtualBase)
	return g
}

// Wrap returns a recording client over c, attributed to the next process id
// (0, 1, ... in wrap order — match it to the mesh's node order). Wrapping
// the same client again returns the existing wrapper, so a workload driver
// and a fault injector that both wrap the run's clients share one recording
// per client; wrapping a Recording of this group returns it unchanged.
func (g *RecordingGroup) Wrap(c Client) *Recording {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := c.(*Recording); ok && r.g == g {
		return r
	}
	if r, ok := g.wrapped[c]; ok {
		return r
	}
	proc := int32(len(g.order))
	if proc >= RecordingVirtualBase {
		panic("recmem: too many recorded clients")
	}
	r := &Recording{
		inner: c,
		g:     g,
		rec:   history.NewClientRecorder(proc, func() int32 { return g.virt.Add(1) - 1 }),
	}
	g.wrapped[c] = r
	g.order = append(g.order, r)
	return r
}

// Histories snapshots the per-client histories recorded so far, in wrap
// order, each on its own local timeline (ready for history.Merge).
func (g *RecordingGroup) Histories() []history.History {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]history.History, 0, len(g.order))
	for _, r := range g.order {
		out = append(out, r.History())
	}
	return out
}

// Merged merges the recorded per-client histories onto one global timeline:
// cross-client order comes from the wall-clock stamps where they are
// unambiguous and from the tag witnesses where they are not, and the tag
// witnesses are audited for consistency (one tag binding two values fails
// the merge). See history.Merge for the exact ordering rules.
//
// Before merging, each recorder's incarnation-epoch tracking is audited: a
// node that regressed its epoch or failed to mint past a recorded crash
// (docs/adr/0006) fails the merge outright — no checker search needed for
// that class of dishonesty.
func (g *RecordingGroup) Merged() (history.History, error) {
	g.mu.Lock()
	recs := append([]*Recording(nil), g.order...)
	g.mu.Unlock()
	for _, r := range recs {
		if err := r.rec.EpochViolation(); err != nil {
			return nil, err
		}
	}
	return history.Merge(g.Histories())
}

// Verify merges the recorded histories and checks them against the given
// criterion — the live-mesh counterpart of Cluster.Verify. A nil return
// means the run upheld the criterion; otherwise the error describes the
// violation (or a merge inconsistency). To inspect the merged history AND
// check it without merging twice, call Merged and then VerifyHistory.
func (g *RecordingGroup) Verify(cr Criterion) error {
	merged, err := g.Merged()
	if err != nil {
		return err
	}
	return VerifyHistory(merged, cr)
}

// VerifyHistory checks an already-merged history (from
// RecordingGroup.Merged) against the given criterion.
func VerifyHistory(merged history.History, cr Criterion) error {
	return atomicity.Check(merged, cr.mode())
}

// Recording is a Client that records every operation, crash and recovery it
// observes into a per-client history (internal/history.ClientRecorder),
// stamping events on the local wall clock and attaching the tag witnesses
// the backend reports. It is driver-transparent: operations pass through to
// the wrapped client unchanged.
//
// A Recording observes only its own client's traffic — wrap every client of
// the run (through one RecordingGroup) and drive all operations and fault
// injection through the wrappers, or the merged history will be missing
// events. Outcomes a client cannot know stay conservative: an operation
// that fails with an unknown fate (crash, timeout, transport error) is
// recorded as pending forever on a one-shot virtual client, which the
// checkers may drop — never as completed.
type Recording struct {
	inner Client
	g     *RecordingGroup
	rec   *history.ClientRecorder

	mu   sync.Mutex
	regs map[string]*Register
}

var _ Client = (*Recording)(nil)

// Proc returns the process id the recording attributes sequential
// operations to.
func (r *Recording) Proc() int32 { return r.rec.Proc() }

// Unwrap returns the wrapped client.
func (r *Recording) Unwrap() Client { return r.inner }

// History snapshots this client's recorded history on its local timeline.
func (r *Recording) History() history.History { return r.rec.History() }

// Register resolves a recording handle on the named register; the wrapped
// client's handle resolution is cached exactly once, like any backend.
func (r *Recording) Register(name string) *Register {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.regs == nil {
		r.regs = make(map[string]*Register)
	}
	reg := r.regs[name]
	if reg == nil {
		inner := r.inner.Register(name)
		reg = NewRegister(name, &recordingBackend{r: r, name: name, b: inner.b})
		r.regs[name] = reg
	}
	return reg
}

// Crash injects a crash through the wrapped client and records the crash
// event once the injection is acknowledged.
func (r *Recording) Crash(ctx context.Context) error {
	err := r.inner.Crash(ctx)
	if err == nil {
		r.rec.Crash()
	}
	return err
}

// Recover recovers through the wrapped client and records the recovery
// event once acknowledged. ErrNotDown also records a recovery when a crash
// is on record: the process is confirmed up, so it must have recovered
// outside this client's view — a real process restart (SIGKILL + re-exec)
// runs the recovery procedure at boot, and the injector's Recover then
// finds the node already serving. Recording the recovery at the
// confirmation point is conservative: operations between the actual boot
// recovery and this event were attributed to one-shot virtual clients.
func (r *Recording) Recover(ctx context.Context) error {
	err := r.inner.Recover(ctx)
	if err == nil || errors.Is(err, ErrNotDown) {
		r.rec.Recover() // no-op when no crash is recorded
	}
	return err
}

// Close closes the wrapped client. The recorded history stays available.
func (r *Recording) Close() error { return r.inner.Close() }

// recordingBackend wraps a register backend with history recording.
type recordingBackend struct {
	r    *Recording
	name string
	b    RegisterBackend
}

var _ RegisterBackend = (*recordingBackend)(nil)

func (b *recordingBackend) Read(ctx context.Context, o OpOptions) ([]byte, OpID, error) {
	id := b.r.rec.Invoke(history.Read, b.name, "", false)
	var (
		wit Tag
		ep  uint64
	)
	callerWit, callerEp := o.Witness, o.Epoch
	o.Witness, o.Epoch = &wit, &ep
	val, op, err := b.b.Read(ctx, o)
	if callerWit != nil {
		*callerWit = wit
	}
	if callerEp != nil {
		*callerEp = ep
	}
	if err == nil {
		b.r.rec.Return(id, string(val), wit, ep)
	} else {
		// A failed read has no effect to verify: erase the invocation.
		b.r.rec.Abort(id, history.AbortRejected)
	}
	return val, op, err
}

func (b *recordingBackend) Write(ctx context.Context, val []byte, o OpOptions) (OpID, error) {
	id := b.r.rec.Invoke(history.Write, b.name, string(val), false)
	var (
		wit Tag
		ep  uint64
	)
	callerWit, callerEp := o.Witness, o.Epoch
	o.Witness, o.Epoch = &wit, &ep
	op, err := b.b.Write(ctx, val, o)
	if callerWit != nil {
		*callerWit = wit
	}
	if callerEp != nil {
		*callerEp = ep
	}
	if err == nil {
		b.r.rec.Return(id, "", wit, ep)
	} else {
		b.r.rec.Abort(id, writeAbortFate(err))
	}
	return op, err
}

func (b *recordingBackend) SubmitRead(o OpOptions) (Future, error) {
	id := b.r.rec.Invoke(history.Read, b.name, "", true)
	fut, err := b.b.SubmitRead(o)
	if err != nil {
		b.r.rec.Abort(id, history.AbortRejected)
		return nil, err
	}
	go b.observe(id, history.Read, fut)
	return fut, nil
}

func (b *recordingBackend) SubmitWrite(val []byte, o OpOptions) (Future, error) {
	id := b.r.rec.Invoke(history.Write, b.name, string(val), true)
	fut, err := b.b.SubmitWrite(val, o)
	if err != nil {
		b.r.rec.Abort(id, history.AbortRejected)
		return nil, err
	}
	go b.observe(id, history.Write, fut)
	return fut, nil
}

// observe records a submitted operation's outcome when its future resolves.
// Recording rides on the future's completion, not on the caller's Wait, so
// abandoned futures are still recorded faithfully.
func (b *recordingBackend) observe(id uint64, typ history.OpType, fut Future) {
	val, err := fut.Wait(context.Background())
	switch {
	case err == nil:
		var wit Tag
		if tw, ok := fut.(TagWitness); ok {
			wit, _ = tw.TagWitness()
		}
		var ep uint64
		if ew, ok := fut.(EpochWitness); ok {
			ep, _ = ew.Incarnation()
		}
		ret := ""
		if typ == history.Read {
			ret = string(val)
		}
		b.r.rec.Return(id, ret, wit, ep)
	case typ == history.Read:
		b.r.rec.Abort(id, history.AbortRejected)
	default:
		b.r.rec.Abort(id, writeAbortFate(err))
	}
}

// writeAbortFate classifies a failed write: admission rejections provably
// never executed and are erased; anything else (crash, timeout, transport
// failure, unknown server errors) may have taken effect and stays pending.
func writeAbortFate(err error) history.AbortFate {
	switch {
	case errors.Is(err, ErrDown),
		errors.Is(err, ErrNotWriter),
		errors.Is(err, ErrBadConsistency),
		errors.Is(err, wire.ErrValueTooLarge):
		return history.AbortRejected
	default:
		return history.AbortUnknown
	}
}
