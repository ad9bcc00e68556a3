package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/transport"
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

// pipeNode is one node of an n=3 emulation on a pipeEndpoint: the test plays
// both peers (and the node's own loopback), pushing envelopes in and reading
// the node's messages from out.
type pipeNode struct {
	t   *testing.T
	nd  *Node
	ep  *pipeEndpoint
	rpc uint64
}

// newPipeNode starts node self (OneRoundReads on) over st; ep, if non-nil,
// is the endpoint to use (pre-filled deliveries land as one group).
func newPipeNode(t *testing.T, self int32, kind AlgorithmKind, st stable.Storage, ep transport.Endpoint) *pipeNode {
	t.Helper()
	p := &pipeNode{t: t}
	if ep == nil {
		p.ep = &pipeEndpoint{id: self, in: make(chan wire.Envelope, 64), out: make(chan wire.Envelope, 64)}
		ep = p.ep
	}
	nd, err := NewNode(self, 3, kind, Options{OneRoundReads: true},
		Deps{Endpoint: ep, Storage: st, IDs: &atomic.Uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	p.nd = nd
	t.Cleanup(nd.Close)
	return p
}

// push delivers an envelope of the given kind from peer for reg, with a
// fresh RPC, which it returns.
func (p *pipeNode) push(kind wire.Kind, from int32, reg string, tv tagValue) uint64 {
	p.rpc++
	p.ep.in <- wire.Envelope{Kind: kind, From: from, To: p.nd.id, Reg: reg, RPC: p.rpc, Op: p.rpc,
		Tag: tv.tag, Value: tv.val}
	return p.rpc
}

// expect returns the node's next message, which must be of the given kind.
// It fails after 5 s — a reply that queues behind a held store times out.
func (p *pipeNode) expect(kind wire.Kind) wire.Envelope {
	p.t.Helper()
	select {
	case env := <-p.ep.out:
		if env.Kind != kind {
			p.t.Fatalf("node sent %v, want a %v", env, kind)
		}
		return env
	case <-time.After(5 * time.Second):
		p.t.Fatalf("timed out waiting for a %v", kind)
		return wire.Envelope{}
	}
}

// gatedDisk holds open every store that touches a record with the armed
// prefix: it announces the store on entered and returns from it — having
// made it durable — only once release is closed.
type gatedDisk struct {
	stable.Storage
	prefix  string
	entered chan int // number of records in the held store
	release chan struct{}
}

// newGatedDisk gates prefix over st; the gate starts closed.
func newGatedDisk(st stable.Storage, prefix string) *gatedDisk {
	return &gatedDisk{Storage: st, prefix: prefix, entered: make(chan int, 1), release: make(chan struct{})}
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

// loggedTag returns the tag st's written/ record of reg carries (zero if
// there is none).
func loggedTag(t *testing.T, st stable.Storage, reg string) tag.Tag {
	t.Helper()
	data, ok, err := st.Retrieve(recWrittenPrefix + reg)
	if err != nil {
		t.Fatalf("written/%s: %v", reg, err)
	}
	if !ok {
		return tag.Tag{}
	}
	logged, _, err := decodeTagged(data)
	if err != nil {
		t.Fatalf("written/%s: %v", reg, err)
	}
	return logged
}

// TestReadAckNeverAheadOfLog pins the invariant OneRoundReads stands on: a
// replica's volatile view — what RegisterState shows and what a KindRead is
// answered from — never names a tag whose written/ store has not returned.
// The replica's store of the new tag is held open; meanwhile its view must
// still be the old tag, and a read query delivered to it must be answered at
// once — the listener never waits on the adopter's disk (docs/adr/0017) —
// with the old one. The RegisterState half catches a swapped store/adopt
// order in the logger's commitGroup, for a group of one register and of two;
// the ack half catches a listener that answers from a view the logger moved
// early, or that waits on it.
func TestReadAckNeverAheadOfLog(t *testing.T) {
	const self, peer = 2, 0
	oldTag, newTag := tagOf(1, peer, 0), tagOf(2, peer, 0)
	for _, tc := range []struct {
		name string   // the row names predate the one commitGroup path
		regs []string // one W each, adopted as one group
	}{
		{"handleWrite", []string{"x"}},
		{"handleWriteGroup", []string{"y", "x"}},
	} {
		for _, kind := range []AlgorithmKind{Transient, Persistent} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				// The decoy gate parks the adopter so that every W pushed
				// meanwhile queues into one group.
				decoy := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recWrittenPrefix+"decoy")
				gate := newGatedDisk(decoy, recWrittenPrefix+"x")
				p := newPipeNode(t, self, kind, gate, nil)
				defer close(p.ep.in)
				prev, next := tagValue{oldTag, []byte("v1")}, tagValue{newTag, []byte("v2")}

				// The old tag is adopted and logged everywhere it matters.
				close(gate.release) // gate open for the set-up stores
				for _, reg := range tc.regs {
					p.push(wire.KindWrite, peer, reg, prev)
					p.expect(wire.KindWriteAck)
				}
				<-gate.entered // x's set-up store passed through
				gate.release = make(chan struct{})

				// Park the adopter, queue the new tag's Ws behind it, let go:
				// they are adopted as one group.
				p.push(wire.KindWrite, peer, "decoy", next)
				<-decoy.entered
				for _, reg := range tc.regs {
					p.push(wire.KindWrite, peer, reg, next)
				}
				// A read answered proves the listener handed the Ws over.
				p.push(wire.KindRead, peer, "x", tagValue{})
				p.expect(wire.KindReadAck)
				close(decoy.release)
				p.expect(wire.KindWriteAck) // the decoy's
				if got := <-gate.entered; got != len(tc.regs) {
					t.Fatalf("held store carries %d records, want %d (the Ws did not form one group)", got, len(tc.regs))
				}

				// The store of the new tag is in progress. The view is still old.
				for _, reg := range tc.regs {
					if got, val, _ := p.nd.RegisterState(reg); got != oldTag || string(val) != "v1" {
						t.Fatalf("view of %s during its written/ store = %v %q, want %v \"v1\": the volatile view ran ahead of the log",
							reg, got, val, oldTag)
					}
				}
				// A read query delivered now is answered at once, from the old
				// tag.
				p.push(wire.KindRead, peer, "x", tagValue{})
				if ack := p.expect(wire.KindReadAck); ack.Tag != oldTag {
					t.Fatalf("replica answered %v while its store of %v was still open", ack, newTag)
				}

				// The store returns: acknowledgements, then a new query
				// answered from the now-logged tag.
				close(gate.release)
				for range tc.regs {
					p.expect(wire.KindWriteAck)
				}
				p.push(wire.KindRead, peer, "x", tagValue{})
				if ack := p.expect(wire.KindReadAck); ack.Tag != newTag || string(ack.Value) != "v2" {
					t.Fatalf("read ack after the store = %v, want tag %v", ack, newTag)
				}
				if logged := loggedTag(t, gate, "x"); logged != newTag {
					t.Fatalf("written/x carries %v, want %v", logged, newTag)
				}
			})
		}
	}
}
