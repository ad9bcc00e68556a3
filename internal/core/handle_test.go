package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/stable"
)

// handleCluster builds n nodes over an instantaneous simulated network.
func handleCluster(t *testing.T, n int, kind AlgorithmKind) []*Node {
	t.Helper()
	nw, err := netsim.New(n, netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	ids := &atomic.Uint64{}
	nodes := make([]*Node, n)
	for i := range nodes {
		var disk stable.Storage
		if kind.Recovers() {
			disk = stable.NewMemDisk(stable.Profile{})
		}
		nd, err := NewNode(int32(i), n, kind,
			Options{RetransmitEvery: 10 * time.Millisecond},
			Deps{Endpoint: nw.Endpoint(int32(i)), Storage: disk, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
	}
	return nodes
}

// TestRegisterRefOps checks handle-based operations behave like the
// Node-level API and interoperate with it on the same register.
func TestRegisterRefOps(t *testing.T) {
	nodes := handleCluster(t, 3, Persistent)
	ctx := context.Background()

	ref := nodes[0].RegisterRef("x")
	if ref.Name() != "x" || ref.Node() != nodes[0] {
		t.Fatal("handle identity")
	}
	if _, _, _, err := ref.Write(ctx, []byte("v1"), OpObserver{}); err != nil {
		t.Fatal(err)
	}
	// Read through the plain API at another node: same register.
	got, _, err := nodes[1].Read(ctx, "x", OpObserver{})
	if err != nil || string(got) != "v1" {
		t.Fatalf("node read = %q, %v", got, err)
	}
	// Write through the plain API, read through the handle.
	if _, err := nodes[2].Write(ctx, "x", []byte("v2"), OpObserver{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, _, err = ref.Read(ctx, ReadDefault, OpObserver{})
	if err != nil || string(got) != "v2" {
		t.Fatalf("handle read = %q, %v", got, err)
	}

	// Submitted operations through the handle coalesce and complete.
	futs := make([]*Future, 0, 10)
	for i := 0; i < 10; i++ {
		f, err := ref.SubmitWrite([]byte{byte('a' + i)}, OpObserver{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := ref.SubmitRead(ReadDefault, OpObserver{})
	if err != nil {
		t.Fatal(err)
	}
	val, err := rf.Wait(ctx)
	if err != nil || string(val) != "j" {
		t.Fatalf("submitted read = %q, %v", val, err)
	}

	// The handle stays valid across crash and recovery.
	nodes[0].Crash(nil)
	if _, _, _, err := ref.Write(ctx, []byte("nope"), OpObserver{}); !errors.Is(err, ErrDown) {
		t.Fatalf("handle write while down: %v", err)
	}
	if err := nodes[0].Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ref.Write(ctx, []byte("v3"), OpObserver{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, _, err = ref.Read(ctx, ReadDefault, OpObserver{})
	if err != nil || string(got) != "v3" {
		t.Fatalf("handle read after recovery = %q, %v", got, err)
	}
}

// TestRegisterRefFromQueueMap pins where handles live: in the engine's
// queue map, one per register, so resolving a known name returns the same
// handle every time and allocates nothing.
func TestRegisterRefFromQueueMap(t *testing.T) {
	nd := handleCluster(t, 1, Persistent)[0]
	ref := nd.RegisterRef("x")
	if nd.RegisterRef("x") != ref || nd.RegisterRef("y") == ref {
		t.Fatal("one name must resolve to one handle, two names to two")
	}
	if allocs := testing.AllocsPerRun(100, func() { nd.RegisterRef("x") }); allocs != 0 {
		t.Fatalf("RegisterRef of a known register allocates %v times", allocs)
	}
}

// TestSafeReadSW exercises the writer-served safe read at the protocol
// level: correct values, message economy (2 messages), and rejection under
// other algorithms.
func TestSafeReadSW(t *testing.T) {
	nodes := handleCluster(t, 5, RegularSW)
	ctx := context.Background()

	if _, err := nodes[0].Write(ctx, "x", []byte("s1"), OpObserver{}); err != nil {
		t.Fatal(err)
	}
	ref := nodes[3].RegisterRef("x")
	val, _, _, _, err := ref.Read(ctx, ReadSafe, OpObserver{})
	if err != nil || string(val) != "s1" {
		t.Fatalf("safe read = %q, %v", val, err)
	}
	// ReadRegular is the native read under RegularSW.
	val, _, _, _, err = ref.Read(ctx, ReadRegular, OpObserver{})
	if err != nil || string(val) != "s1" {
		t.Fatalf("regular read = %q, %v", val, err)
	}
	// Safe read at the writer itself: pure loopback.
	wref := nodes[0].RegisterRef("x")
	val, _, _, _, err = wref.Read(ctx, ReadSafe, OpObserver{})
	if err != nil || string(val) != "s1" {
		t.Fatalf("safe self-read = %q, %v", val, err)
	}
	// Submitted safe reads bypass the engine but complete normally.
	f, err := ref.SubmitRead(ReadSafe, OpObserver{})
	if err != nil {
		t.Fatal(err)
	}
	if val, err := f.Wait(ctx); err != nil || string(val) != "s1" {
		t.Fatalf("submitted safe read = %q, %v", val, err)
	}

	// Mode selection is rejected under every non-RegularSW algorithm.
	atomicNodes := handleCluster(t, 3, Persistent)
	aref := atomicNodes[0].RegisterRef("x")
	if _, _, _, _, err := aref.Read(ctx, ReadSafe, OpObserver{}); !errors.Is(err, ErrBadConsistency) {
		t.Fatalf("safe read under persistent: %v", err)
	}
	if _, err := aref.SubmitRead(ReadRegular, OpObserver{}); !errors.Is(err, ErrBadConsistency) {
		t.Fatalf("regular submit-read under persistent: %v", err)
	}
}

// TestSafeReadBlocksWithoutWriter pins the availability trade-off: the safe
// read waits for the writer — and completes the moment it recovers.
func TestSafeReadBlocksWithoutWriter(t *testing.T) {
	nodes := handleCluster(t, 3, RegularSW)
	ctx := context.Background()
	if _, err := nodes[0].Write(ctx, "x", []byte("v"), OpObserver{}); err != nil {
		t.Fatal(err)
	}
	nodes[0].Crash(nil)

	ref := nodes[2].RegisterRef("x")
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, _, _, _, err := ref.Read(short, ReadSafe, OpObserver{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("safe read without writer: %v", err)
	}

	// Start a safe read, then recover the writer: the read completes.
	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := nodes[1].RegisterRef("x").Read(ctx, ReadSafe, OpObserver{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := nodes[0].Recover(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("safe read after writer recovery: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("safe read never completed after writer recovery")
	}
}
