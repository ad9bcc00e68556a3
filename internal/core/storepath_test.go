package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/stable"
	"recmem/internal/wire"
)

// The node's logger is its one store path (docs/adr/0019): the replica's
// adoptions, Naive's per-step logs, the executions' pre-logs and the
// recoveries' records all reach the disk as the logger's StoreBatch calls.

// storeFails fails the test on every Store: whatever the node stores must
// come through its logger, which commits with StoreBatch.
type storeFails struct {
	stable.Storage
	t *testing.T
}

func (d storeFails) Store(record string, data []byte) error {
	d.t.Errorf("Store(%q) bypassed the node's logger", record)
	return d.Storage.Store(record, data)
}

// TestOneStorePath: for every algorithm, writes, reads — one of them at a
// replica that missed the last write, so its write-back has something to
// adopt — and a crash and recovery of the writer store only through the
// node's logger. The writer's writing/x pre-log of Persistent and Naive is
// pending at the crash, so their recovery finishes it with a round.
func TestOneStorePath(t *testing.T) {
	for _, kind := range append(allKinds(), RegularSW) {
		t.Run(kind.String(), func(t *testing.T) {
			tc := newWrappedCluster(t, 3, kind, Options{}, netsim.Options{},
				func(st stable.Storage) stable.Storage { return storeFails{st, t} })
			const writer = int(RegularWriter)
			if _, err := tc.write(writer, "x", "v1"); err != nil {
				t.Fatal(err)
			}
			tc.net.SetFilter(func(e wire.Envelope) bool { return !(e.Kind == wire.KindWrite && e.To == 2) })
			if _, err := tc.write(writer, "x", "v2"); err != nil {
				t.Fatal(err)
			}
			tc.net.SetFilter(nil)
			if got, _, err := tc.read(2, "x"); err != nil || got != "v2" {
				t.Fatalf("read at the replica that missed v2 = %q, %v", got, err)
			}
			if !kind.Recovers() {
				return
			}

			tc.crash(writer)
			if err := tc.recover(writer); err != nil {
				t.Fatal(err)
			}
			want := map[AlgorithmKind]int{Persistent: 1, Naive: 1}[kind]
			if got := tc.nodes[writer].LastRecovery().PendingWrites; got != want {
				t.Fatalf("recovery finished %d pending writes, want %d", got, want)
			}
			if _, err := tc.write(writer, "x", "v3"); err != nil {
				t.Fatal(err)
			}
			if got, _, err := tc.read(1, "x"); err != nil || got != "v3" {
				t.Fatalf("read after the recovery = %q, %v; want v3", got, err)
			}
			if groups, _ := tc.nodes[writer].Adoptions(); groups == 0 {
				t.Fatal("the writer's logger stored nothing")
			}
		})
	}
}

// TestLastRecoveryOnlyAfterSuccess: LastRecovery describes the last recovery
// that completed. A Transient node recovers once; its second recovery's
// recovered record is held in the store, the node crashes, and the store is
// released: that Recover fails with ErrCrashed, and the stats still show the
// first recovery's count.
func TestLastRecoveryOnlyAfterSuccess(t *testing.T) {
	gate := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recRecovered)
	close(gate.release) // the first recovery's record passes
	p := newPipeNode(t, 0, Transient, gate, nil)
	defer close(p.ep.in)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p.nd.Crash(nil)
	if err := p.nd.Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the first record passed; its store has returned
	gate.release = make(chan struct{})
	if got := p.nd.LastRecovery().RecoveryCount; got != 1 {
		t.Fatalf("after the first recovery, RecoveryCount = %d, want 1", got)
	}

	p.nd.Crash(nil)
	recovered := make(chan error, 1)
	go func() { recovered <- p.nd.Recover(ctx, nil, nil) }()
	<-gate.entered // the second recovery's record is being stored
	if !p.nd.Crash(nil) {
		t.Fatal("Crash during the recovery refused")
	}
	close(gate.release)
	if err := <-recovered; !errors.Is(err, ErrCrashed) {
		t.Fatalf("Recover interrupted by a crash = %v, want ErrCrashed", err)
	}
	if got := p.nd.LastRecovery().RecoveryCount; got != 1 {
		t.Fatalf("after the interrupted recovery, RecoveryCount = %d, want still 1", got)
	}
}

// TestLoggerDropFailsQueuedRecovery: a recovery's incarnation record queued
// behind a held store is dropped by a crash like any pre-log. That Recover
// fails with ErrCrashed and uses up no epoch — nothing was stored — and the
// retried Recover mints the next epoch above every one ever stored
// (docs/adr/0006).
func TestLoggerDropFailsQueuedRecovery(t *testing.T) {
	disk := stable.NewMemDisk(stable.Profile{})
	gate := newGatedDisk(disk, recWrittenPrefix+"decoy")
	p := newPipeNode(t, 0, Persistent, gate, nil)
	defer close(p.ep.in)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stored := func() uint64 {
		t.Helper()
		inc, err := loadIncarnation(disk)
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}

	p.nd.Crash(nil)
	if err := p.nd.Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	burned := p.nd.IncarnationEpoch()
	if stored() != burned {
		t.Fatalf("stored epoch %d, node at %d", stored(), burned)
	}

	p.push(wire.KindWrite, 1, "decoy", tagValue{tagOf(1, 1, 0), []byte("d")})
	<-gate.entered // the logger is parked in the decoy's store
	p.nd.Crash(nil)
	recovered := make(chan error, 1)
	go func() { recovered <- p.nd.Recover(ctx, nil, nil) }()
	p.waitQueued(1) // the incarnation record, behind the decoy
	if !p.nd.Crash(nil) {
		t.Fatal("Crash during the recovery refused")
	}
	if err := <-recovered; !errors.Is(err, ErrCrashed) {
		t.Fatalf("Recover whose record was dropped = %v, want ErrCrashed", err)
	}
	if got := p.nd.IncarnationEpoch(); got != burned {
		t.Fatalf("epoch after the dropped record = %d, want still %d", got, burned)
	}
	close(gate.release)

	if err := p.nd.Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := p.nd.IncarnationEpoch(); got != burned+1 || stored() != got {
		t.Fatalf("retried recovery at epoch %d with %d stored, want %d for both", got, stored(), burned+1)
	}
}

// orderDisk records the name of every record it stores, in the order the
// stores returned.
type orderDisk struct {
	stable.Storage
	mu    sync.Mutex
	names []string
}

func (d *orderDisk) Store(record string, data []byte) error {
	return d.StoreBatch([]stable.Record{{Name: record, Data: data}})
}

func (d *orderDisk) StoreBatch(recs []stable.Record) error {
	err := d.Storage.StoreBatch(recs)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range recs {
		d.names = append(d.names, r.Name)
	}
	return err
}

func (d *orderDisk) stored() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.names...)
}

// TestLoggerSettlesDeadPreLogFirst: the logger is FIFO, so a pre-log of the
// dead incarnation that it holds is settled before the recovery's first
// store commits. W1's writing/x is held through a crash; the recovery's
// incarnation record queues behind it and stores nothing meanwhile. Released,
// writing/x commits first, the recovery's scan finds it and finishes W1's
// write with a round, and W1 itself fails with ErrCrashed.
func TestLoggerSettlesDeadPreLogFirst(t *testing.T) {
	gate := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recWritingPrefix)
	disk := &orderDisk{Storage: gate}
	p := newPipeNode(t, 0, Persistent, disk, nil)
	defer close(p.ep.in)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	w1 := p.submitToPreLog()
	<-gate.entered // W1's pre-log is in the logger's held group
	p.nd.Crash(nil)
	recovered := make(chan error, 1)
	go func() { recovered <- p.nd.Recover(ctx, nil, nil) }()
	p.waitQueued(1) // the recovery's incarnation record
	if got := disk.stored(); len(got) != 0 {
		t.Fatalf("stored %v while the dead pre-log was held", got)
	}

	close(gate.release)
	if op := p.ackRound(wire.KindWrite, 0); op == w1.Op() {
		t.Fatal("W1 sent its round 2 after the crash")
	}
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	if got := disk.stored(); len(got) != 2 || got[0] != recWritingPrefix+"x" || got[1] != recIncarnation {
		t.Fatalf("stores in order %v, want [%sx %s]", got, recWritingPrefix, recIncarnation)
	}
	if got := p.nd.LastRecovery().PendingWrites; got != 1 {
		t.Fatalf("recovery finished %d pending writes, want W1's", got)
	}
	if _, err := w1.Wait(ctx); !errors.Is(err, ErrCrashed) {
		t.Fatalf("W1, held in its pre-log through the crash = %v, want ErrCrashed", err)
	}
}

// TestRecoveryFinishesPendingWritesAtOnce: Fig. 4's recovery starts one
// propagate-only execution per writing/ record, so with three pending
// writes all three W sweeps leave before any acknowledgement is delivered,
// and Recover returns once all three are acknowledged.
func TestRecoveryFinishesPendingWritesAtOnce(t *testing.T) {
	const self = 0
	disk := stable.NewMemDisk(stable.Profile{})
	for i, reg := range []string{"x", "y", "z"} {
		if err := disk.Store(recWritingPrefix+reg, encodeTagged(tagOf(int64(i+1), self, 0), []byte(reg))); err != nil {
			t.Fatal(err)
		}
	}
	p := newPipeNode(t, self, Persistent, disk, nil)
	defer close(p.ep.in)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p.nd.Crash(nil)
	recovered := make(chan error, 1)
	go func() { recovered <- p.nd.Recover(ctx, nil, nil) }()
	var sweeps []wire.Envelope
	for seen := map[string]bool{}; len(seen) < 9; {
		if env := p.next(); env.Kind == wire.KindWrite {
			if key := fmt.Sprint(env.Reg, env.To); !seen[key] {
				seen[key] = true
				sweeps = append(sweeps, env)
			}
		}
	}
	for _, env := range sweeps {
		if env.To != self {
			p.ep.in <- wire.Envelope{Kind: wire.KindWriteAck, From: env.To, To: self, Reg: env.Reg, RPC: env.RPC, Op: env.Op}
		}
	}
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	if got := p.nd.LastRecovery().PendingWrites; got != 3 {
		t.Fatalf("recovery finished %d pending writes, want 3", got)
	}
}
