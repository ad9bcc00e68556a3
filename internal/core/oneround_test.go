package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// tagValue is a tagged value carried by a test envelope.
type tagValue struct {
	tag tag.Tag
	val []byte
}

// pipeEndpoint is a one-process network: the test pushes envelopes into in
// and reads whatever the node sends from out.
type pipeEndpoint struct {
	id  int32
	in  chan wire.Envelope
	out chan wire.Envelope
}

func (e *pipeEndpoint) ID() int32                  { return e.id }
func (e *pipeEndpoint) Send(env wire.Envelope)     { e.out <- env }
func (e *pipeEndpoint) Recv() <-chan wire.Envelope { return e.in }

// gatedDisk holds open every store that touches a record with the armed
// prefix: it announces the store on entered and returns from it — having
// made it durable — only once release is closed.
type gatedDisk struct {
	stable.Storage
	prefix  string
	entered chan int // number of records in the held store
	release chan struct{}
}

func (g *gatedDisk) hold(recs ...stable.Record) {
	for _, r := range recs {
		if strings.HasPrefix(r.Name, g.prefix) {
			g.entered <- len(recs)
			<-g.release
			return
		}
	}
}

func (g *gatedDisk) Store(record string, data []byte) error {
	err := g.Storage.Store(record, data)
	g.hold(stable.Record{Name: record, Data: data})
	return err
}

func (g *gatedDisk) StoreBatch(recs []stable.Record) error {
	err := g.Storage.StoreBatch(recs)
	g.hold(recs...)
	return err
}

// TestReadAckNeverAheadOfLog pins the invariant OneRoundReads stands on: a
// replica's volatile view — what RegisterState shows and what a KindRead is
// answered from — never names a tag whose written/ store has not returned.
// The replica's store of the new tag is held open; meanwhile its view must
// still be the old tag, and a read query delivered to it must not be answered
// with the new one. The RegisterState half catches a swapped store/adopt
// order in handleWrite or handleWriteGroup; the ack half is what a listener
// that stopped being sequential would break silently.
func TestReadAckNeverAheadOfLog(t *testing.T) {
	const self, peer = 2, 0
	oldTag, newTag := tagOf(1, peer, 0), tagOf(2, peer, 0)
	for _, tc := range []struct {
		name string
		regs []string // one W each, delivered as one group
	}{
		{"handleWrite", []string{"x"}},
		{"handleWriteGroup", []string{"y", "x"}},
	} {
		for _, kind := range []AlgorithmKind{Transient, Persistent} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				ep := &pipeEndpoint{id: self, in: make(chan wire.Envelope, 16), out: make(chan wire.Envelope, 16)}
				// The decoy gate parks the listener so that everything pushed
				// meanwhile is gathered into one delivery group.
				decoy := &gatedDisk{Storage: stable.NewMemDisk(stable.Profile{}),
					prefix: recWrittenPrefix + "decoy", entered: make(chan int, 1), release: make(chan struct{})}
				gate := &gatedDisk{Storage: decoy,
					prefix: recWrittenPrefix + "x", entered: make(chan int, 1), release: make(chan struct{})}
				nd, err := NewNode(self, 3, kind, Options{OneRoundReads: true},
					Deps{Endpoint: ep, Storage: gate, IDs: &atomic.Uint64{}})
				if err != nil {
					t.Fatal(err)
				}
				defer nd.Close()
				defer close(ep.in)

				var rpc uint64
				push := func(kind wire.Kind, reg string, tg tagValue) {
					rpc++
					ep.in <- wire.Envelope{Kind: kind, From: peer, To: self, Reg: reg, RPC: rpc, Op: rpc,
						Tag: tg.tag, Value: tg.val}
				}
				// expect returns the node's next message, which must be of the
				// given kind.
				expect := func(kind wire.Kind) wire.Envelope {
					t.Helper()
					select {
					case env := <-ep.out:
						if env.Kind != kind {
							t.Fatalf("node sent %v, want a %v", env, kind)
						}
						return env
					case <-time.After(5 * time.Second):
						t.Fatalf("timed out waiting for a %v", kind)
						return wire.Envelope{}
					}
				}
				prev, next := tagValue{oldTag, []byte("v1")}, tagValue{newTag, []byte("v2")}

				// The old tag is adopted and logged everywhere it matters.
				close(gate.release) // gate open for the set-up stores
				for _, reg := range tc.regs {
					push(wire.KindWrite, reg, prev)
					expect(wire.KindWriteAck)
				}
				<-gate.entered // x's set-up store passed through
				gate.release = make(chan struct{})

				// Park the listener, queue the new tag's Ws behind it, let go:
				// they arrive as one group.
				push(wire.KindWrite, "decoy", next)
				<-decoy.entered
				for _, reg := range tc.regs {
					push(wire.KindWrite, reg, next)
				}
				close(decoy.release)
				expect(wire.KindWriteAck) // the decoy's
				if got := <-gate.entered; got != len(tc.regs) {
					t.Fatalf("held store carries %d records, want %d (the Ws did not form one group)", got, len(tc.regs))
				}

				// The store of the new tag is in progress. The view is still old.
				for _, reg := range tc.regs {
					if got, val, _ := nd.RegisterState(reg); got != oldTag || string(val) != "v1" {
						t.Fatalf("view of %s during its written/ store = %v %q, want %v \"v1\": the volatile view ran ahead of the log",
							reg, got, val, oldTag)
					}
				}
				// A read query delivered now is not answered from the new tag.
				push(wire.KindRead, "x", tagValue{})
				select {
				case env := <-ep.out:
					if env.Kind != wire.KindReadAck || env.Tag != oldTag {
						t.Fatalf("replica answered %v while its store of %v was still open", env, newTag)
					}
					push(wire.KindRead, "x", tagValue{}) // an async listener answered old; ask again for after
				case <-time.After(50 * time.Millisecond):
					// Today's sequential listener: the query queues behind the store.
				}

				// The store returns: acknowledgements, then the queued query
				// answered from the now-logged tag.
				close(gate.release)
				for range tc.regs {
					expect(wire.KindWriteAck)
				}
				if ack := expect(wire.KindReadAck); ack.Tag != newTag || string(ack.Value) != "v2" {
					t.Fatalf("read ack after the store = %v, want tag %v", ack, newTag)
				}
				data, ok, err := gate.Retrieve(recWrittenPrefix + "x")
				if err != nil || !ok {
					t.Fatalf("written/x = %v, %v", ok, err)
				}
				if logged, _, err := decodeTagged(data); err != nil || logged != newTag {
					t.Fatalf("written/x carries %v (%v), want %v", logged, err, newTag)
				}
			})
		}
	}
}
