package core

import (
	"context"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/tag"
)

// TestMintTagMatchesDocumentedRules cross-checks the node's timestamp
// minting against the paper's documented [sn, pid] advancement rules — and
// against tag.Next, which is now the single implementation of those rules
// (it had previously drifted from core.mintTag as dead code):
//
//   - Fig. 4 (persistent, naive, crash-stop): sn := max_queried_sn + 1.
//   - Fig. 5 (transient): sn := max_queried_sn + rec + 1, with the
//     persisted recovery count compensating for the missing writer pre-log.
//   - Hardened tags (docs/adr/0024): the recovery count additionally rides
//     as the Rec lexicographic tiebreak; literal algorithms leave Rec 0.
func TestMintTagMatchesDocumentedRules(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	recoverTimes := func(tc *testCluster, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if !tc.nodes[0].Crash(nil) {
				t.Fatal("crash refused")
			}
			if err := tc.nodes[0].Recover(ctx, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("Fig4", func(t *testing.T) {
		for _, kind := range []AlgorithmKind{Persistent, Naive, CrashStop} {
			tc := newTestCluster(t, 1, kind, Options{}, netsim.Options{})
			for _, maxSeq := range []int64{0, 1, 41} {
				got := tc.nodes[0].mintTag(maxSeq)
				want := tag.Tag{Seq: maxSeq + 1, Writer: 0}
				if got != want {
					t.Fatalf("%v mintTag(%d) = %v, want %v", kind, maxSeq, got, want)
				}
				if next := (tag.Tag{Seq: maxSeq}).Next(0, 0, 0); next != got {
					t.Fatalf("%v: tag.Next = %v, mintTag = %v", kind, next, got)
				}
			}
		}
	})

	t.Run("Fig5", func(t *testing.T) {
		tc := newTestCluster(t, 1, Transient, Options{}, netsim.Options{})
		recoverTimes(tc, 3)
		if rec := tc.nodes[0].RecoveryCount(); rec != 3 {
			t.Fatalf("recovery count = %d, want 3", rec)
		}
		got := tc.nodes[0].mintTag(10)
		want := tag.Tag{Seq: 10 + 3 + 1, Writer: 0}
		if got != want {
			t.Fatalf("transient mintTag(10) after 3 recoveries = %v, want %v", got, want)
		}
		if next := (tag.Tag{Seq: 10}).Next(0, 3, 0); next != got {
			t.Fatalf("tag.Next = %v, mintTag = %v", next, got)
		}
	})

	t.Run("Hardened", func(t *testing.T) {
		tc := newTestCluster(t, 1, Transient, Options{HardenedTags: true}, netsim.Options{})
		recoverTimes(tc, 2)
		got := tc.nodes[0].mintTag(5)
		want := tag.Tag{Seq: 5 + 2 + 1, Writer: 0, Rec: 2}
		if got != want {
			t.Fatalf("hardened mintTag(5) after 2 recoveries = %v, want %v", got, want)
		}
	})

	// §VI single-writer: the same advancement rule applied to the writer's
	// own view — one completed write then a crash+recover bumps the next
	// tag past anything the dead incarnation could have minted.
	t.Run("RegularSW", func(t *testing.T) {
		tc := newTestCluster(t, 1, RegularSW, Options{}, netsim.Options{})
		if _, err := tc.nodes[0].Write(ctx, "x", []byte("v1"), OpObserver{}); err != nil {
			t.Fatal(err)
		}
		own, _, _ := tc.nodes[0].RegisterState("x")
		if own != (tag.Tag{Seq: 1, Writer: 0}) {
			t.Fatalf("first write adopted %v, want [1,0]", own)
		}
		recoverTimes(tc, 1)
		if _, err := tc.nodes[0].Write(ctx, "x", []byte("v2"), OpObserver{}); err != nil {
			t.Fatal(err)
		}
		adopted, _, _ := tc.nodes[0].RegisterState("x")
		want := own.Next(0, 1, 0) // sn + rec + 1 with rec = 1
		if adopted != want {
			t.Fatalf("post-recovery write adopted %v, want %v", adopted, want)
		}
	})
}
