package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/core"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// frameEndpoint is a process's network attachment reduced to two queues: the
// deliveries, which the test fills before the node exists — so the listener
// finds a whole batch frame already delivered — and the acknowledgements the
// node sends back.
type frameEndpoint struct {
	recv, sent chan wire.Envelope
}

func (e *frameEndpoint) ID() int32                  { return 1 }
func (e *frameEndpoint) Recv() <-chan wire.Envelope { return e.recv }
func (e *frameEndpoint) Send(env wire.Envelope) {
	select {
	case e.sent <- env:
	default: // fair-lossy: never block the listener
	}
}

// TestWALGroupCommitAmortizesFsyncs is the acceptance gate of the storage
// engine, stated on one replica's own counters: a batch frame carrying the
// propagation rounds of k registers is adopted through ONE StoreBatch, which
// the wal backend makes durable with ONE fsync — where one synchronous write
// per record would pay k. The frame is
// delivered before the node starts listening, so how rounds happen to
// coalesce on a loaded machine (which decided the old two-run comparison)
// plays no part: k records per sync is structural for a k-register frame.
func TestWALGroupCommitAmortizesFsyncs(t *testing.T) {
	const k = 8
	inner, err := stable.OpenBackend("wal", t.TempDir(), stable.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	disk := stable.NewCounting(inner)
	defer disk.Close()

	ep := &frameEndpoint{recv: make(chan wire.Envelope, k), sent: make(chan wire.Envelope, k)}
	defer close(ep.recv) // ends the node's listener
	for j := 1; j <= k; j++ {
		ep.recv <- wire.Envelope{
			Kind: wire.KindWrite, From: 0, To: 1, Reg: fmt.Sprintf("r%d", j),
			RPC: uint64(j), Op: uint64(j), Tag: tag.Tag{Seq: 1}, Value: []byte("v"),
		}
	}
	nd, err := core.NewNode(1, 3, core.Persistent, core.Options{},
		core.Deps{Endpoint: ep, Storage: disk, IDs: &atomic.Uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	for j := 0; j < k; j++ {
		select {
		case ack := <-ep.sent:
			if ack.Kind != wire.KindWriteAck {
				t.Fatalf("replica sent %v, want a write ack", ack.Kind)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("replica acknowledged %d of %d adoptions", j, k)
		}
	}

	records, syncs := disk.Stores(), inner.(interface{ Syncs() int64 }).Syncs()
	if records != k || syncs != 1 {
		t.Fatalf("a %d-register frame cost %d records in %d fsyncs, want %d in 1",
			k, records, syncs, k)
	}
}

// TestClusterWALBackendVerifies: a cluster on the wal backend over a mix of
// sync and async operations with crash/recovery still satisfies its
// atomicity criterion — the engine is a drop-in storage substrate.
func TestClusterWALBackendVerifies(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := New(Config{
		N:           3,
		Algorithm:   core.Persistent,
		Node:        core.Options{RetransmitEvery: 5 * time.Millisecond},
		DiskBackend: "wal",
		DiskDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 5; i++ {
		if _, err := c.Write(ctx, 0, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	futs := make([]*core.Future, 12)
	for j := range futs {
		f, err := c.SubmitWrite(1, fmt.Sprintf("r%d", j%3), []byte(fmt.Sprintf("a%d", j)))
		if err != nil {
			t.Fatal(err)
		}
		futs[j] = f
	}
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Crash(0) {
		t.Fatal("crash refused")
	}
	if err := c.Recover(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// The recovered process reads its stable state back through the wal.
	if val, _, err := c.Read(ctx, 0, "x"); err != nil || string(val) != "v4" {
		t.Fatalf("read after wal recovery = %q err=%v", val, err)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}
