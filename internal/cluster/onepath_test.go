package cluster_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/metrics"
	"recmem/internal/stable"
	"recmem/internal/wire"
)

// Synchronous operations are submissions awaited under the process's
// operation mutex (docs/adr/0011). These tests pin the two things that merge
// must not change: what a lone operation costs, and what a call that stops
// waiting leaves in the history.

// opBill is the paper's cost of one operation: request/acknowledgement
// rounds, messages sent, the causal depth of its logs, and how many stores
// it caused across all processes.
type opBill struct {
	rounds, sends, depth, logs int
}

// billCase is one algorithm's row of the cost table: what a lone write and
// a lone quiescent read cost.
type billCase struct {
	kind        core.AlgorithmKind
	write, read opBill
}

// TestBatchOfOneIsFigure6: on a quiescent n=5 cluster a synchronous write
// and read — each a batch of one on the engine path — cost exactly the
// messages and logs of the paper's algorithms (Fig. 6: 2 rounds of n
// messages; 0/1/2 causal logs per crash-stop/transient/persistent write, 0
// per quiescent read), every request goes out as a message of its own, and
// every log is one single-record store. A replica may still answer two
// requests in one frame: a slow one gathers a round-1 query and the round-2
// envelope behind it into one delivery group.
func TestBatchOfOneIsFigure6(t *testing.T) {
	const n = 5
	cases := []billCase{
		{core.CrashStop, opBill{2, 2 * n, 0, 0}, opBill{2, 2 * n, 0, 0}},
		{core.Transient, opBill{2, 2 * n, 1, n}, opBill{2, 2 * n, 0, 0}},
		{core.Persistent, opBill{2, 2 * n, 2, 1 + n}, opBill{2, 2 * n, 0, 0}},
		// The straw man logs every step: intent, each sequence-number reply,
		// the pre-log and each adoption for a write; the reader's intent and
		// every replica's (unchanged) state for a read.
		{core.Naive, opBill{2, 2 * n, 4, 2 + 2*n}, opBill{2, 2 * n, 2, 1 + n}},
		{core.RegularSW, opBill{1, n, 1, n}, opBill{1, n, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) { billOfOne(t, n, core.Options{}, tc) })
	}

	// With Options.OneRoundReads (docs/adr/0015) the quiescent read of the
	// three atomic algorithms finds its majority agreeing and stops after the
	// query round: n messages, still no log. Naive and RegularSW ignore the
	// option, and no write row moves.
	oneRound := []billCase{
		{core.CrashStop, opBill{2, 2 * n, 0, 0}, opBill{1, n, 0, 0}},
		{core.Transient, opBill{2, 2 * n, 1, n}, opBill{1, n, 0, 0}},
		{core.Persistent, opBill{2, 2 * n, 2, 1 + n}, opBill{1, n, 0, 0}},
		{core.Naive, opBill{2, 2 * n, 4, 2 + 2*n}, opBill{2, 2 * n, 2, 1 + n}},
		{core.RegularSW, opBill{1, n, 1, n}, opBill{1, n, 0, 0}},
	}
	t.Run("one-round-reads", func(t *testing.T) {
		for i, tc := range oneRound {
			if off := cases[i]; tc.kind != off.kind || tc.write != off.write {
				t.Fatalf("row %d = %+v against %+v: the option must not move a write bill", i, tc, off)
			}
			t.Run(tc.kind.String(), func(t *testing.T) { billOfOne(t, n, core.Options{OneRoundReads: true}, tc) })
		}
	})
}

// billOfOne runs one synchronous write, then one quiescent read, on a fresh
// n-process cluster and compares their bills with tc's.
func billOfOne(t *testing.T, n int, opts core.Options, tc billCase) {
	var disks []*stable.Counting
	// No operation here waits on a lost message; a slow machine must not add
	// a retransmission sweep to the bill.
	opts.RetransmitEvery = time.Minute
	c := newCluster(t, cluster.Config{
		N: n, Algorithm: tc.kind, Node: opts,
		DiskFactory: func(int32) (stable.Storage, error) {
			d := stable.NewCounting(stable.NewMemDisk(stable.Profile{}))
			disks = append(disks, d)
			return d, nil
		},
	})
	shared := watchRequestFrames(c)
	ctx := testCtx(t)
	stored := func() (records, commits int) {
		for _, d := range disks {
			records += d.Stores()
			commits += d.Commits()
		}
		return records, commits
	}
	// check waits for the operation's stragglers (replicas beyond the
	// majority adopt and log after it returned), then compares its bill with
	// the paper's.
	check := func(name string, op uint64, want opBill, wantStored int) {
		t.Helper()
		waitUntil(t, 5*time.Second, name+"'s last log", func() bool { return c.LogCost(op).Logs >= want.logs })
		if got, want := c.MsgTrace(op), (metrics.OpTrace{Rounds: want.rounds, Sends: want.sends}); got != want {
			t.Errorf("%s messages = %+v, want %+v", name, got, want)
		}
		if got := c.LogCost(op); got.Logs != want.logs || got.CausalDepth != want.depth {
			t.Errorf("%s logs = %+v, want %d logs of causal depth %d", name, got, want.logs, want.depth)
		}
		if records, commits := stored(); records != wantStored || commits != wantStored {
			t.Errorf("after %s: %d records in %d store calls, want %d single-record stores",
				name, records, commits, wantStored)
		}
	}

	w, err := c.Write(ctx, core.RegularWriter, "x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	// Quiescence: every replica has adopted, so the read's write-back
	// replaces nothing anywhere.
	waitAdopted(t, c, "x", "v")
	check("write", w.Op, tc.write, tc.write.logs)

	val, r, err := c.Read(ctx, 1, "x")
	if err != nil || string(val) != "v" {
		t.Fatalf("read = %q, %v", val, err)
	}
	check("read", r.Op, tc.read, tc.write.logs+tc.read.logs)
	check("write, after the read", w.Op, tc.write, tc.write.logs+tc.read.logs)

	// ReadRounds counts what OneRoundReads decided, nothing else: RegularSW's
	// read, one round by definition, is in neither count.
	wantOne, wantTwo := uint64(0), uint64(0)
	switch {
	case tc.kind == core.RegularSW:
	case tc.read.rounds == 1:
		wantOne = 1
	default:
		wantTwo = 1
	}
	if one, two := c.Node(1).ReadRounds(); one != wantOne || two != wantTwo {
		t.Errorf("reader's ReadRounds = %d one-round, %d two-round; want %d, %d", one, two, wantOne, wantTwo)
	}

	if n := shared.Load(); n != 0 {
		t.Errorf("%d requests shared a frame with another request; want plain messages only", n)
	}
}

// watchRequestFrames counts the requests (queries, writes, write-backs)
// that ride in a frame behind another request. netsim consults its filter
// for the envelopes of one frame back to back, under its lock, and a frame
// has one sender and one destination; so a request that follows a request
// on the same link in the very next filter call shares its frame. A lone
// operation never sends one link two requests in a row otherwise: between
// its rounds' sweeps come the acknowledgements, on other links.
func watchRequestFrames(c *cluster.Cluster) *atomic.Int64 {
	var shared atomic.Int64
	prev := wire.Envelope{From: -1} // the last envelope seen; guarded by netsim's lock
	request := func(env wire.Envelope) bool { return !env.Kind.IsAck() }
	c.Net().SetFilter(func(env wire.Envelope) bool {
		if request(env) && request(prev) && env.From == prev.From && env.To == prev.To {
			shared.Add(1)
		}
		prev = env
		return true
	})
	return &shared
}

// TestAbandonedSynchronousCall: a synchronous call whose context ends returns
// the context's error and its invocation stays pending in the history — even
// though the operation itself is not cancelled and completes in the engine
// once a quorum is reachable again. The process is not wedged: a follow-up
// call on the same register completes behind the abandoned one.
func TestAbandonedSynchronousCall(t *testing.T) {
	// call runs one synchronous operation at proc on register "x".
	type call func(ctx context.Context, c *cluster.Cluster, proc int32) (cluster.Report, error)
	write := func(ctx context.Context, c *cluster.Cluster, proc int32) (cluster.Report, error) {
		return c.Write(ctx, proc, "x", []byte("late"))
	}
	safeRead := func(ctx context.Context, c *cluster.Cluster, proc int32) (cluster.Report, error) {
		_, rep, err := c.Handle(proc, "x").Read(ctx, core.ReadSafe)
		return rep, err
	}
	cases := []struct {
		name string
		kind core.AlgorithmKind
		proc int32 // the process that abandons its call
		op   call
		typ  history.OpType
	}{
		{"persistent write", core.Persistent, 0, write, history.Write},
		{"transient write", core.Transient, 0, write, history.Write},
		{"regular safe read", core.RegularSW, 2, safeRead, history.Read},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, testConfig(3, tc.kind))
			ctx := testCtx(t)
			if _, err := c.Write(ctx, core.RegularWriter, "x", []byte("v0")); err != nil {
				t.Fatal(err)
			}

			c.Net().Isolate(tc.proc) // no quorum (and no writer) in reach
			short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
			defer cancel()
			abandoned, err := tc.op(short, c, tc.proc)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("call without a quorum = %v, want DeadlineExceeded", err)
			}
			c.Net().Heal(tc.proc)

			// The abandoned operation drains: its rounds complete on the next
			// retransmission.
			rounds := 2
			if tc.kind == core.RegularSW {
				rounds = 1
			}
			waitUntil(t, 5*time.Second, "the abandoned operation's rounds", func() bool {
				return c.MsgTrace(abandoned.Op).Rounds >= rounds
			})

			// Another process's operations verify against a history in which
			// the abandoned invocation is pending (a pending write may take
			// effect; here it has).
			other := (tc.proc + 1) % 3
			val, _, err := c.Read(ctx, other, "x")
			if err != nil {
				t.Fatal(err)
			}
			if want := map[history.OpType]string{history.Write: "late", history.Read: "v0"}[tc.typ]; string(val) != want {
				t.Fatalf("read after the drain = %q, want %q", val, want)
			}
			if err := verifyDefault(c); err != nil {
				t.Fatalf("history with the abandoned invocation pending: %v", err)
			}

			// A follow-up write queues behind the abandoned one on the
			// register's dispatcher, so its return also proves the abandoned
			// one was settled — silently.
			if _, err := tc.op(ctx, c, tc.proc); err != nil {
				t.Fatalf("follow-up call: %v", err)
			}
			var found bool
			for _, op := range c.History().Operations() {
				if op.OpID != abandoned.Op {
					continue
				}
				found = true
				if op.Proc != tc.proc || op.Type != tc.typ || !op.Pending() {
					t.Fatalf("abandoned operation in the history = %v, want a pending %v of process %d", op, tc.typ, tc.proc)
				}
			}
			if !found {
				t.Fatal("abandoned invocation missing from the history")
			}
		})
	}
}
