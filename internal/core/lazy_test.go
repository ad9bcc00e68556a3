package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"recmem/internal/netsim"
)

// TestRecoveryIsLazy is the lazy-recovery guarantee (docs/adr/0009),
// checked through the Counting storage wrapper: a restart over a populated
// namespace must perform ZERO written/ Retrieves and ZERO full-namespace
// Records enumerations — the register map materializes on first touch, so
// recovery's stable reads are the streaming writing/ scan plus the
// counters, independent of how many registers the node has adopted.
func TestRecoveryIsLazy(t *testing.T) {
	tc := newTestCluster(t, 3, Persistent, Options{}, netsim.Options{})
	const regs = 50
	for i := 0; i < regs; i++ {
		if _, err := tc.write(0, fmt.Sprintf("r%02d", i), fmt.Sprintf("v%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	disk := tc.disks[1]
	// The last write adopted: nothing of the writes is left on its way to the
	// replica, whose recovery must then read no written/ record.
	waitFor(t, time.Second, "replica adoption", func() bool {
		return disk.RecordStores(fmt.Sprintf("written/r%02d", regs-1)) >= 1
	})

	tc.crash(1)
	lists, scans := disk.Lists(), disk.Scans()
	writtenReads := disk.PrefixRetrieves("written/")
	if err := tc.recover(1); err != nil {
		t.Fatal(err)
	}

	if got := disk.Lists(); got != lists {
		t.Fatalf("recovery called Records %d times — the restart enumerated the namespace", got-lists)
	}
	if got := disk.PrefixRetrieves("written/"); got != writtenReads {
		t.Fatalf("recovery retrieved %d written/ records — the register map was rebuilt eagerly", got-writtenReads)
	}
	if got := disk.Scans(); got <= scans {
		t.Fatal("recovery never used the streaming writing/ scan")
	}
	if stats := tc.nodes[1].LastRecovery(); stats.PendingWrites != 0 {
		t.Fatalf("PendingWrites = %d on a cleanly crashed node", stats.PendingWrites)
	}

	// First touch materializes from storage: exactly one written/ Retrieve,
	// returning the state the replica adopted before the crash.
	tg, val, ok := tc.nodes[1].RegisterState("r07")
	if !ok || tg.IsZero() || !bytes.Equal(val, []byte("v07")) {
		t.Fatalf("materialized state = %v %q ok=%v", tg, val, ok)
	}
	if got := disk.PrefixRetrieves("written/"); got != writtenReads+1 {
		t.Fatalf("first touch cost %d written/ retrieves, want 1", got-writtenReads)
	}
	// Second touch serves from the materialized map: no further reads.
	if _, _, ok := tc.nodes[1].RegisterState("r07"); !ok {
		t.Fatal("materialized state vanished")
	}
	if got := disk.PrefixRetrieves("written/"); got != writtenReads+1 {
		t.Fatal("second touch re-read stable storage")
	}
}

// TestRecoveryRetrievesOnlyPending: with a pending writing/ record on disk,
// the restart's register reads are exactly O(pending) — it retrieves the
// pending record, finishes the write with a majority round, and still never
// enumerates or reloads the adopted namespace.
func TestRecoveryRetrievesOnlyPending(t *testing.T) {
	tc := newTestCluster(t, 3, Persistent, Options{}, netsim.Options{})
	for i := 0; i < 20; i++ {
		if _, err := tc.write(0, fmt.Sprintf("r%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// A write returns at a majority; let the replica under test drain its
	// share too, or deliveries still queued at its listener would
	// materialize their registers after the restart and be billed to it.
	waitFor(t, time.Second, "replica adoption", func() bool {
		for i := 0; i < 20; i++ {
			if tc.disks[1].RecordStores(fmt.Sprintf("written/r%02d", i)) == 0 {
				return false
			}
		}
		return true
	})
	// Plant an interrupted write: the pre-log Fig. 4's recovery must finish.
	pendingTag := tagOf(1000, 1, 0)
	if err := tc.disks[1].Store("writing/pend", encodeTagged(pendingTag, []byte("resumed"))); err != nil {
		t.Fatal(err)
	}
	tc.crash(1)
	writtenReads := tc.disks[1].PrefixRetrieves("written/")
	writingReads := tc.disks[1].PrefixRetrieves("writing/")
	if err := tc.recover(1); err != nil {
		t.Fatal(err)
	}
	if stats := tc.nodes[1].LastRecovery(); stats.PendingWrites != 1 {
		t.Fatalf("PendingWrites = %d, want 1", stats.PendingWrites)
	}
	if got := tc.disks[1].PrefixRetrieves("writing/"); got != writingReads+1 {
		t.Fatalf("recovery cost %d writing/ retrieves, want 1", got-writingReads)
	}
	// The recovery round's own adoption may materialize the pending register
	// at this node's listener — that is part of the O(pending) bill. No
	// OTHER written/ record may be read.
	delta := tc.disks[1].PrefixRetrieves("written/") - writtenReads
	if pendDelta := tc.disks[1].PrefixRetrieves("written/pend"); delta != pendDelta {
		t.Fatalf("recovery retrieved %d written/ records beyond the pending register", delta-pendDelta)
	}
	// The interrupted write reached a majority during recovery.
	for _, proc := range []int{0, 2} {
		waitFor(t, time.Second, "pending write propagation", func() bool {
			tg, v, ok := tc.nodes[proc].RegisterState("pend")
			return ok && tg == pendingTag && bytes.Equal(v, []byte("resumed"))
		})
	}
}

// TestLazyMaterializationAcrossCrashCycles: materialized entries die with
// the incarnation that loaded them. Crash immediately after a restart, then
// again, and the node must still serve the adopted namespace correctly —
// and report the zero state (the paper's ⊥) for a register nothing ever
// touched, without inventing state from a dead incarnation's loads.
func TestLazyMaterializationAcrossCrashCycles(t *testing.T) {
	tc := newTestCluster(t, 3, Persistent, Options{}, netsim.Options{})
	if _, err := tc.write(1, "x", "v1"); err != nil {
		t.Fatal(err)
	}
	disk := tc.disks[1]
	waitFor(t, time.Second, "self adoption", func() bool {
		return disk.RecordStores("written/x") >= 1
	})
	for cycle := 0; cycle < 3; cycle++ {
		tc.crash(1)
		if err := tc.recover(1); err != nil {
			t.Fatal(err)
		}
	}
	// Crash-then-read on the fresh incarnation: the touched register
	// materializes, the never-touched one is ⊥ with no state invented.
	if tg, val, ok := tc.nodes[1].RegisterState("x"); !ok || tg.IsZero() || !bytes.Equal(val, []byte("v1")) {
		t.Fatalf("adopted register after crash cycles: %v %q ok=%v", tg, val, ok)
	}
	if tg, val, ok := tc.nodes[1].RegisterState("never-touched"); ok || !tg.IsZero() || val != nil {
		t.Fatalf("never-touched register: %v %q ok=%v, want zero state", tg, val, ok)
	}
	// A full protocol read of the never-touched register agrees: ⊥.
	if v, _, err := tc.read(1, "never-touched"); err != nil || v != "" {
		t.Fatalf("read(never-touched) = %q, %v", v, err)
	}
	// And writes keep working on the restarted incarnation.
	if _, err := tc.write(1, "x", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, _, err := tc.read(1, "x"); err != nil || v != "v2" {
		t.Fatalf("read after write = %q, %v", v, err)
	}
}
