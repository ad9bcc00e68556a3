package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/stable"
	"recmem/internal/wire"
)

// TestIncarnationEpochMonotoneAcrossRecoveries pins the in-process half of
// the incarnation contract (docs/adr/0006): the epoch starts at 1 on a
// first-ever boot and strictly increases across every crash+recover cycle,
// and completed operations witness the epoch they ran under.
func TestIncarnationEpochMonotoneAcrossRecoveries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tc := newTestCluster(t, 1, Persistent, Options{}, netsim.Options{})
	nd := tc.nodes[0]

	if got := nd.IncarnationEpoch(); got != 1 {
		t.Fatalf("first-boot epoch = %d, want 1", got)
	}
	prev := nd.IncarnationEpoch()
	for i := 0; i < 3; i++ {
		if !nd.Crash(nil) {
			t.Fatal("crash refused")
		}
		if err := nd.Recover(ctx, nil, nil); err != nil {
			t.Fatal(err)
		}
		got := nd.IncarnationEpoch()
		if got <= prev {
			t.Fatalf("cycle %d: epoch %d did not advance past %d", i, got, prev)
		}
		prev = got
	}

	// A completed operation is a witness for the epoch it ran under.
	_, _, inc, err := nd.RegisterRef("x").Write(ctx, []byte("v"), OpObserver{})
	if err != nil {
		t.Fatal(err)
	}
	if inc != nd.IncarnationEpoch() {
		t.Fatalf("write witnessed epoch %d, node reports %d", inc, nd.IncarnationEpoch())
	}
}

// TestIncarnationEpochSurvivesRestart pins the cross-process half: a node
// rebuilt over the same stable-storage directory — the recmem-node restart
// path — must come up past every epoch its dead incarnations burned, even
// though the volatile counter died with the process.
func TestIncarnationEpochSurvivesRestart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	ids := &atomic.Uint64{}

	boot := func() uint64 {
		t.Helper()
		nw, err := netsim.New(1, netsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		disk, err := stable.OpenBackend("wal", dir, stable.Profile{})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		nd, err := NewNode(0, 1, Persistent,
			Options{RetransmitEvery: 10 * time.Millisecond},
			Deps{Endpoint: nw.Endpoint(0), Storage: disk, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		// The recmem-node boot transition: crash+recover before serving,
		// which is also what mints (and persists) the new epoch.
		if !nd.Crash(nil) {
			t.Fatal("boot crash refused")
		}
		if err := nd.Recover(ctx, nil, nil); err != nil {
			t.Fatal(err)
		}
		return nd.IncarnationEpoch()
	}

	prev := uint64(0)
	for i := 0; i < 3; i++ {
		got := boot()
		if got <= prev {
			t.Fatalf("boot %d: epoch %d did not advance past %d", i, got, prev)
		}
		prev = got
	}
}

// ackRound plays both peers for the node's next round of kind — under op, or
// the first such round the node sends when op is 0 — acknowledging it from
// the two processes other than the node itself and skipping everything else
// the node sends meanwhile. It returns the round's op.
func (p *pipeNode) ackRound(kind wire.Kind, op uint64) uint64 {
	p.t.Helper()
	ackKind := map[wire.Kind]wire.Kind{wire.KindSNQuery: wire.KindSNAck, wire.KindWrite: wire.KindWriteAck}[kind]
	acked := map[int32]bool{p.nd.id: true}
	for len(acked) < 3 {
		env := p.next()
		if env.Kind != kind || acked[env.To] || (op != 0 && env.Op != op) {
			continue
		}
		op = env.Op
		acked[env.To] = true
		p.ep.in <- wire.Envelope{Kind: ackKind, From: env.To, To: p.nd.id, Reg: env.Reg, RPC: env.RPC, Op: env.Op}
	}
	return op
}

// next returns the node's next message, failing after 5 s.
func (p *pipeNode) next() wire.Envelope {
	p.t.Helper()
	select {
	case env := <-p.ep.out:
		return env
	case <-time.After(5 * time.Second):
		p.t.Fatal("timed out waiting for the node to send")
		return wire.Envelope{}
	}
}

// TestDeadEpochRunsNothing: an operation taken before a crash does nothing
// after the recovery (docs/adr/0018). W1 is held mid-execution: in its
// writing/ pre-log for the algorithms that log one, and in its unacknowledged
// round 2 for Transient, whose write path never touches the disk. A
// synchronous Write W2 to the same register queues behind it. Then Crash,
// Recover and release. A held pre-log holds the node's logger, and the
// recovery's records queue behind it (the logger is FIFO, docs/adr/0019), so
// there the release comes while Recover waits on its first record; Fig. 4's
// recovery then finishes writing/x. W1 must not send its round 2, W2 must
// fail with ErrCrashed having sent nothing, and a read submitted afterwards
// is the next round the node sends.
func TestDeadEpochRunsNothing(t *testing.T) {
	const self = 0
	for _, kind := range []AlgorithmKind{Persistent, Transient, Naive} {
		t.Run(kind.String(), func(t *testing.T) {
			gate := newGatedDisk(stable.NewMemDisk(stable.Profile{}), recWritingPrefix)
			p := newPipeNode(t, self, kind, gate, nil)
			defer close(p.ep.in)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()

			w1, err := p.nd.SubmitWrite("x", []byte("w1"), OpObserver{})
			if err != nil {
				t.Fatal(err)
			}
			p.ackRound(wire.KindSNQuery, w1.Op())
			if kind != Transient {
				<-gate.entered // W1's pre-log is durable and held
			} // Transient: W1's round 2 is out, and nobody acknowledges it

			invoked := make(chan uint64, 1)
			w2 := make(chan error, 1)
			go func() {
				_, err := p.nd.Write(ctx, "x", []byte("w2"), OpObserver{OnInvoke: func(op uint64) { invoked <- op }})
				w2 <- err
			}()
			w2op := <-invoked

			if !p.nd.Crash(nil) {
				t.Fatal("Crash refused")
			}
			// Retransmissions staged before the crash or by the recovery may
			// still be on their way; W2 and W1's round 2 never are.
			dead := func(env wire.Envelope) {
				if env.Op == w2op || (kind != Transient && env.Op == w1.Op() && env.Kind == wire.KindWrite) {
					t.Fatalf("the recovered node sent %v for an operation of the dead incarnation", env)
				}
			}
			recovered := make(chan error, 1)
			go func() { recovered <- p.nd.Recover(ctx, nil, nil) }()
			if kind != Transient {
				p.waitQueued(1) // the recovery's incarnation record, behind W1's pre-log
				close(gate.release)
				// The recovery's round for writing/x is the only W the node
				// may send: acknowledge it from both peers.
				for acked := map[int32]bool{self: true}; len(acked) < 3; {
					env := p.next()
					dead(env)
					if env.Kind == wire.KindWrite && !acked[env.To] {
						acked[env.To] = true
						p.ep.in <- wire.Envelope{Kind: wire.KindWriteAck, From: env.To, To: self, Reg: env.Reg, RPC: env.RPC, Op: env.Op}
					}
				}
			}
			if err := <-recovered; err != nil {
				t.Fatal(err)
			}
			for done := false; !done; {
				select {
				case err := <-w2:
					if !errors.Is(err, ErrCrashed) {
						t.Fatalf("W2, submitted before the crash = %v, want ErrCrashed", err)
					}
					done = true
				case env := <-p.ep.out:
					dead(env)
				}
			}
			if _, err := w1.Wait(ctx); !errors.Is(err, ErrCrashed) {
				t.Fatalf("W1, held through the crash = %v, want ErrCrashed", err)
			}
			probe, err := p.nd.SubmitRead("y", OpObserver{})
			if err != nil {
				t.Fatal(err)
			}
			for env := p.next(); env.Op != probe.Op(); env = p.next() {
				dead(env)
			}
		})
	}
}
