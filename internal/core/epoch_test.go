package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/stable"
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
