package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/stable"
	"recmem/internal/wire"
)

// The listener never waits on the disk (docs/adr/0017): it answers queries
// and routes acknowledgements inline and hands the write kinds to the node's
// one adopter, whose stores are held open here by a gatedDisk — no sleeps.

// overlapDisk counts how many stores are in flight at once through it.
type overlapDisk struct {
	stable.Storage
	inflight, peak atomic.Int32
}

func (o *overlapDisk) enter() {
	n := o.inflight.Add(1)
	for {
		p := o.peak.Load()
		if n <= p || o.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (o *overlapDisk) Store(record string, data []byte) error {
	o.enter()
	defer o.inflight.Add(-1)
	return o.Storage.Store(record, data)
}

func (o *overlapDisk) StoreBatch(recs []stable.Record) error {
	o.enter()
	defer o.inflight.Add(-1)
	return o.Storage.StoreBatch(recs)
}

// TestListenerAnswersDuringAdoption: while an adoption's store is held, an
// SNQuery and a Read are answered — from the old, logged state — and an
// acknowledgement for one of the node's own rounds is routed, so the node's
// read completes.
func TestListenerAnswersDuringAdoption(t *testing.T) {
	const self = 2
	for _, kind := range []AlgorithmKind{Transient, Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			gate := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recWrittenPrefix+"x")
			p := newPipeNode(t, self, kind, gate, nil)
			defer close(p.ep.in)

			p.push(wire.KindWrite, 0, "x", tagValue{tagOf(5, 0, 0), []byte("v5")})
			<-gate.entered

			p.push(wire.KindSNQuery, 0, "x", tagValue{})
			if ack := p.expect(wire.KindSNAck); !ack.Tag.IsZero() {
				t.Fatalf("SN ack during the held store = %v, want the zero tag", ack)
			}
			p.push(wire.KindRead, 1, "x", tagValue{})
			if ack := p.expect(wire.KindReadAck); !ack.Tag.IsZero() || ack.To != 1 {
				t.Fatalf("read ack during the held store = %v, want the zero tag, to 1", ack)
			}

			// The node's own read of another register: its query round goes
			// out, the peers' agreeing acks come in and must be routed.
			fut, err := p.nd.SubmitRead("r", OpObserver{})
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				q := p.expect(wire.KindRead)
				if q.To != self {
					p.ep.in <- wire.Envelope{Kind: wire.KindReadAck, From: q.To, To: self, Reg: q.Reg,
						RPC: q.RPC, Op: q.Op, Value: []byte("r0")}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if val, err := fut.Wait(ctx); err != nil || string(val) != "r0" {
				t.Fatalf("own read during the held store = %q, %v; want r0", val, err)
			}

			close(gate.release)
			p.expect(wire.KindWriteAck)
		})
	}
}

// TestAdopterStoresInDeliveryOrder: same-register Ws tagged 5 (held), 7 and
// 6, and a W of another register, arrive during the hold. After release
// written/ and the view hold 7, every W is acknowledged, the queued Ws were
// committed as one group, and no two stores ever overlapped.
func TestAdopterStoresInDeliveryOrder(t *testing.T) {
	const self = 2
	for _, kind := range []AlgorithmKind{Transient, Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			gate := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recWrittenPrefix+"x")
			st := &overlapDisk{Storage: gate}
			p := newPipeNode(t, self, kind, st, nil)
			defer close(p.ep.in)

			acks := map[uint64]bool{}
			acks[p.push(wire.KindWrite, 0, "x", tagValue{tagOf(5, 0, 0), []byte("v5")})] = false
			<-gate.entered
			acks[p.push(wire.KindWrite, 0, "x", tagValue{tagOf(7, 1, 0), []byte("v7")})] = false
			acks[p.push(wire.KindWrite, 1, "x", tagValue{tagOf(6, 1, 0), []byte("v6")})] = false
			acks[p.push(wire.KindWrite, 1, "y", tagValue{tagOf(3, 1, 0), []byte("y3")})] = false
			p.push(wire.KindRead, 0, "x", tagValue{}) // answered: the Ws are queued
			p.expect(wire.KindReadAck)

			close(gate.release)
			if got := <-gate.entered; got != 2 {
				t.Fatalf("second store carries %d records, want x's winner and y as one group", got)
			}
			for range acks {
				ack := p.expect(wire.KindWriteAck)
				if done, ok := acks[ack.RPC]; !ok || done {
					t.Fatalf("unexpected or duplicate ack %v", ack)
				}
				acks[ack.RPC] = true
			}
			want := tagOf(7, 1, 0)
			if logged := loggedTag(t, st, "x"); logged != want {
				t.Fatalf("written/x = %v, want %v", logged, want)
			}
			if got, val, _ := p.nd.RegisterState("x"); got != want || string(val) != "v7" {
				t.Fatalf("view of x = %v %q, want %v v7", got, val, want)
			}
			if peak := st.peak.Load(); peak != 1 {
				t.Fatalf("%d stores overlapped; the adopter must be the only written/ store path", peak)
			}
			if groups, records := p.nd.Adoptions(); groups != 2 || records != 3 {
				t.Fatalf("Adoptions = %d groups, %d records; want 2, 3", groups, records)
			}
		})
	}
}

// TestAdoptionsDroppedOnCrash: a crash during a held adoption means no ack
// for the held group, the Ws queued behind it are dropped with the rest of
// the volatile state, and after Recover nothing from the old epoch is
// adopted — the next acknowledgement is for a W delivered after recovery.
func TestAdoptionsDroppedOnCrash(t *testing.T) {
	const self = 2
	for _, kind := range []AlgorithmKind{Transient, Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			gate := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recWrittenPrefix+"x")
			p := newPipeNode(t, self, kind, gate, nil)
			defer close(p.ep.in)

			held := tagOf(5, 0, 0)
			p.push(wire.KindWrite, 0, "x", tagValue{held, []byte("v5")})
			<-gate.entered
			p.push(wire.KindWrite, 0, "x", tagValue{tagOf(7, 0, 0), []byte("v7")})
			p.push(wire.KindWrite, 0, "y", tagValue{tagOf(7, 0, 0), []byte("y7")})
			p.push(wire.KindRead, 0, "x", tagValue{}) // answered: the Ws are queued
			p.expect(wire.KindReadAck)

			if !p.nd.Crash(nil) {
				t.Fatal("Crash refused")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := p.nd.Recover(ctx, nil, nil); err != nil {
				t.Fatal(err)
			}
			close(gate.release)

			after := p.push(wire.KindWrite, 1, "z", tagValue{tagOf(1, 1, 0), []byte("z1")})
			if ack := p.expect(wire.KindWriteAck); ack.RPC != after {
				t.Fatalf("first ack after recovery = %v, want the post-recovery W's (rpc %d)", ack, after)
			}
			// The held store itself had reached the disk (a crash after the
			// log, which the algorithm tolerates); the queued Ws never did.
			if logged := loggedTag(t, gate, "x"); logged != held {
				t.Fatalf("written/x = %v, want the held %v", logged, held)
			}
			if logged := loggedTag(t, gate, "y"); !logged.IsZero() {
				t.Fatalf("written/y = %v: a W queued before the crash was adopted", logged)
			}
			if got, _, _ := p.nd.RegisterState("x"); got != held {
				t.Fatalf("view of x = %v, want %v", got, held)
			}
		})
	}
}

// recordEndpoint records how the node's messages leave: single Sends and
// SendBatch calls, with one token on sent per envelope. Its deliveries are
// pre-filled, so they form one group.
type recordEndpoint struct {
	id   int32
	in   chan wire.Envelope
	sent chan struct{}

	mu      sync.Mutex
	sends   []wire.Envelope
	batches [][]wire.Envelope
}

func (e *recordEndpoint) ID() int32                  { return e.id }
func (e *recordEndpoint) Recv() <-chan wire.Envelope { return e.in }

func (e *recordEndpoint) Send(env wire.Envelope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sends = append(e.sends, env)
	e.sent <- struct{}{}
}

func (e *recordEndpoint) SendBatch(envs []wire.Envelope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batches = append(e.batches, append([]wire.Envelope(nil), envs...))
	for range envs {
		e.sent <- struct{}{}
	}
}

// plainEndpoint is a recordEndpoint without batch support.
type plainEndpoint struct{ rec *recordEndpoint }

func (e plainEndpoint) ID() int32                  { return e.rec.ID() }
func (e plainEndpoint) Recv() <-chan wire.Envelope { return e.rec.Recv() }
func (e plainEndpoint) Send(env wire.Envelope)     { e.rec.Send(env) }

// TestListenerRepliesOneFramePerPeer: one delivery group of k Reads from
// peer 1 and m from peer 2, interleaved, is answered with exactly one batch
// frame per peer, each in delivery order; an endpoint without batch support
// gets the same replies as single sends.
func TestListenerRepliesOneFramePerPeer(t *testing.T) {
	const self, k, m = 0, 5, 3
	// newRecorder pre-fills the group: peer 1, 2, 1, 2, 1, 2, 1, 1.
	newRecorder := func() *recordEndpoint {
		rec := &recordEndpoint{id: self, in: make(chan wire.Envelope, k+m), sent: make(chan struct{}, k+m)}
		for i := range k + m {
			from := int32(1)
			if i%2 == 1 && i < 2*m {
				from = 2
			}
			rpc := uint64(i + 1)
			rec.in <- wire.Envelope{Kind: wire.KindRead, From: from, To: self, Reg: "x", RPC: rpc, Op: rpc}
		}
		return rec
	}
	wait := func(rec *recordEndpoint) {
		t.Helper()
		for i := range k + m {
			select {
			case <-rec.sent:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d replies sent", i, k+m)
			}
		}
	}
	disk := func() stable.Storage { return stable.NewMemDisk(stable.Profile{}) }

	t.Run("batch", func(t *testing.T) {
		rec := newRecorder()
		newPipeNode(t, self, Persistent, disk(), rec)
		defer close(rec.in)
		wait(rec)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.sends) != 0 || len(rec.batches) != 2 {
			t.Fatalf("%d single sends and %d batch frames, want 0 and 2", len(rec.sends), len(rec.batches))
		}
		for _, b := range rec.batches {
			want := map[int32]int{1: k, 2: m}[b[0].To]
			if len(b) != want {
				t.Fatalf("frame to %d carries %d replies, want %d", b[0].To, len(b), want)
			}
			for i, env := range b {
				if env.Kind != wire.KindReadAck || env.To != b[0].To || env.From != self ||
					(i > 0 && env.RPC <= b[i-1].RPC) {
					t.Fatalf("frame %v: reply %d = %v", b[0].To, i, env)
				}
			}
		}
	})
	t.Run("plain", func(t *testing.T) {
		rec := newRecorder()
		newPipeNode(t, self, Persistent, disk(), plainEndpoint{rec})
		defer close(rec.in)
		wait(rec)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.sends) != k+m || len(rec.batches) != 0 {
			t.Fatalf("%d single sends and %d batch frames, want %d and 0", len(rec.sends), len(rec.batches), k+m)
		}
	})
}

// The node's logger (docs/adr/0019): the adopter also stores the node's own
// pre-logs, in the same groups as the replica's adoptions.

// waitQueued spins until the logger holds n queued items: a queued pre-log
// has no other sign the test could wait on. It fails after 5 s.
func (p *pipeNode) waitQueued(n int) {
	p.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.nd.adopter.queued() != n {
		if time.Now().After(deadline) {
			p.t.Fatalf("logger holds %d queued items, want %d", p.nd.adopter.queued(), n)
		}
		runtime.Gosched()
	}
}

// submitToPreLog submits a write of x and acknowledges its query round, so
// that the write's next step is its writing/x pre-log; it returns the future.
func (p *pipeNode) submitToPreLog() *Future {
	p.t.Helper()
	fut, err := p.nd.SubmitWrite("x", []byte("w"), OpObserver{})
	if err != nil {
		p.t.Fatal(err)
	}
	p.ackRound(wire.KindSNQuery, fut.Op())
	return fut
}

// awaitWrite reads the node's messages until its round 2 for op goes out,
// returning how many write acknowledgements it passed on the way.
func (p *pipeNode) awaitWrite(op uint64) (acks int) {
	p.t.Helper()
	for {
		switch env := p.next(); {
		case env.Kind == wire.KindWrite && env.Op == op:
			return acks
		case env.Kind == wire.KindWriteAck:
			acks++
		}
	}
}

// TestLoggerMixesPreLogsAndAdoptions: a writer's pre-log and a replica's
// adoption queued together behind a held store leave as one StoreBatch —
// one commit carrying writing/x and written/y — and the write's round 2
// starts only after it, with y acknowledged.
func TestLoggerMixesPreLogsAndAdoptions(t *testing.T) {
	const self = 0
	disk := stable.NewCounting(stable.NewMemDisk(stable.Profile{}))
	gate := newGatedDisk(disk, recWrittenPrefix+"decoy")
	p := newPipeNode(t, self, Persistent, gate, nil)
	defer close(p.ep.in)

	p.push(wire.KindWrite, 1, "decoy", tagValue{tagOf(1, 1, 0), []byte("d")})
	<-gate.entered // the logger is parked in the decoy's store
	fut := p.submitToPreLog()
	p.waitQueued(1)
	p.push(wire.KindWrite, 1, "y", tagValue{tagOf(3, 1, 0), []byte("y3")})
	p.waitQueued(2)

	close(gate.release)
	// The decoy's ack, and y's: the pre-log's waiter wakes before the mixed
	// group's acks go out, so y's may follow round 2.
	for acks := p.awaitWrite(fut.Op()); acks < 2; {
		if p.next().Kind == wire.KindWriteAck {
			acks++
		}
	}
	if got := disk.Commits(); got != 2 {
		t.Fatalf("%d commits, want the decoy's and one for the pre-log and y together", got)
	}
	if disk.RecordStores(recWritingPrefix+"x") != 1 || disk.RecordStores(recWrittenPrefix+"y") != 1 {
		t.Fatalf("writing/x stored %d times, written/y %d times; want 1 and 1",
			disk.RecordStores(recWritingPrefix+"x"), disk.RecordStores(recWrittenPrefix+"y"))
	}
	if groups, records := p.nd.Adoptions(); groups != 2 || records != 3 {
		t.Fatalf("Adoptions = %d groups, %d records; want 2, 3", groups, records)
	}
}

// TestLoggerDropFailsQueuedPreLog: a pre-log queued behind a held store is
// dropped by a crash. Released afterwards, the held store completes, the
// write fails with ErrCrashed, and writing/x is never stored.
func TestLoggerDropFailsQueuedPreLog(t *testing.T) {
	const self = 0
	disk := stable.NewCounting(stable.NewMemDisk(stable.Profile{}))
	gate := newGatedDisk(disk, recWrittenPrefix+"decoy")
	p := newPipeNode(t, self, Persistent, gate, nil)
	defer close(p.ep.in)

	p.push(wire.KindWrite, 1, "decoy", tagValue{tagOf(1, 1, 0), []byte("d")})
	<-gate.entered
	fut := p.submitToPreLog()
	p.waitQueued(1)
	if !p.nd.Crash(nil) {
		t.Fatal("Crash refused")
	}
	close(gate.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write whose pre-log was queued at the crash = %v, want ErrCrashed", err)
	}
	if n := disk.RecordStores(recWritingPrefix + "x"); n != 0 {
		t.Fatalf("writing/x stored %d times after the crash dropped it", n)
	}
	if _, ok, _ := disk.Retrieve(recWritingPrefix + "x"); ok {
		t.Fatal("writing/x is on the disk")
	}
}

// TestLoggerBoundCountsEnvelopes: with 4096 write envelopes queued — the
// bound; the ten admitted beyond it are dropped — a pre-log is still queued
// and stored, and the write proceeds to its round 2 once the 4096 queued
// before it are acknowledged.
func TestLoggerBoundCountsEnvelopes(t *testing.T) {
	const self = 0
	disk := stable.NewMemDisk(stable.Profile{})
	gate := newGatedDisk(disk, recWrittenPrefix+"decoy")
	p := newPipeNode(t, self, Persistent, gate, nil)
	defer close(p.ep.in)

	p.push(wire.KindWrite, 1, "decoy", tagValue{tagOf(1, 1, 0), []byte("d")})
	<-gate.entered
	flood := make([]wire.Envelope, adoptQueueLimit+10)
	for i := range flood {
		flood[i] = wire.Envelope{Kind: wire.KindWrite, From: 1, To: self, Reg: "y",
			RPC: uint64(1000 + i), Op: uint64(1000 + i), Tag: tagOf(2, 1, 0), Value: []byte("y")}
	}
	p.nd.mu.Lock()
	p.nd.adopter.admit(flood)
	p.nd.mu.Unlock()
	p.waitQueued(adoptQueueLimit)

	fut := p.submitToPreLog()
	p.waitQueued(adoptQueueLimit + 1)
	close(gate.release)
	if acks := p.awaitWrite(fut.Op()); acks != 1+adoptQueueLimit {
		t.Fatalf("round 2 went out after %d acks, want the decoy's and the %d queued before the pre-log", acks, adoptQueueLimit)
	}
	if _, ok, err := disk.Retrieve(recWritingPrefix + "x"); !ok || err != nil {
		t.Fatalf("writing/x not stored (err %v)", err)
	}
}
