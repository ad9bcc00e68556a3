package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"recmem/internal/atomicity"
	"recmem/internal/wire"
)

// The adversarial schedules of docs/adr/0024, as driver input lists:
// crash-interrupted writes whose round-1 quorums hear the previous one's
// float ratchet Fig. 5's sequence number onto a minority, where it outlives
// writes that complete elsewhere (the orphan), or meets one minted with the
// same [sn, pid] (the collision).

// readFrom runs a read at p whose rounds hear peers: its query round, and
// the write-back where the read takes one.
func (d *driver) readFrom(p int32, reg string, peers ...int32) {
	d.t.Helper()
	d.run(read(p, reg))
	d.run(d.trip(p, wire.KindRead, peers...)...)
	if d.ps[p].running() {
		d.run(d.stepLog(p)...)
		d.run(d.trip(p, wire.KindWriteBack, peers...)...)
	}
}

// orphanSchedule is the five-node schedule: five crash-interrupted writes
// whose round-1 quorums alternately include the previous float holder
// (ratcheting a high floating timestamp onto p3/p4 while {0,1,2} stay at
// zero), two writes that complete on {0,1,2}, and a read that hears the
// float holder p3.
func orphanSchedule(d *driver) {
	d.run(d.crashDuringWrite(0, "x", "f1", 3, 0, 1, 2)...) // tag seq 1 -> p3
	d.run(d.crashDuringWrite(0, "x", "f2", 4, 0, 1, 3)...) // hears p3's 1
	d.run(d.crashDuringWrite(0, "x", "f3", 3, 0, 1, 4)...) // hears p4's
	d.run(d.crashDuringWrite(0, "x", "f4", 4, 0, 1, 3)...)
	d.run(d.crashDuringWrite(0, "x", "f5", 3, 0, 1, 4)...)
	d.run(d.completed(0, "x", "v6", 0, 1, 2)...)
	d.run(d.completed(0, "x", "v7", 0, 1, 2)...)
	d.readFrom(1, "x", 1, 2, 3)
}

// TestTransientOrphanDominance runs orphanSchedule against the literal Fig.
// 5 algorithm: the orphaned timestamp outlives two completed writes, a read
// returns the orphan value, and the checker reports a transient-atomicity
// violation. The same schedule against the persistent algorithm is clean —
// its writer pre-log plus recovery write-back (the second causal log of
// Theorem 1) is exactly what prevents the orphan.
func TestTransientOrphanDominance(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind AlgorithmKind
		want string
	}{{"transient-literal", Transient, "f5"}, {"persistent", Persistent, "v7"}} {
		t.Run(tc.name, func(t *testing.T) {
			d := replayRun(t, rowDriver(t, 5, tc.kind, Options{}), orphanSchedule)
			if got := d.returned(); !slices.Equal(got, []string{tc.want}) {
				t.Fatalf("read = %q, want %s", got, tc.want)
			}
			err := atomicity.Check(d.hist, criterion(tc.kind))
			var v *atomicity.Violation
			if orphan := tc.want[0] == 'f'; orphan && !errors.As(err, &v) {
				t.Fatalf("expected a violation, got %v", err)
			} else if !orphan && err != nil {
				t.Fatalf("check: %v", err)
			}
		})
	}
}

// orphanScheduleN3 is the three-node form, the mesh size recmem-node
// deploys: the crash-interrupted writes all float on p2, each one's round 1
// hearing the previous one there (the first hears {0,1}), so the k-th float
// mints sn = k(k+1)/2 (Fig. 5 line 11 with rec = k-1). Two writes then
// complete on {0,1}, which never saw a float, minting sn = k+1 and 2(k+1),
// and a read hears p2.
func orphanScheduleN3(floats int) func(*driver) {
	return func(d *driver) {
		d.run(d.crashDuringWrite(0, "x", "f1", 2, 0, 1)...)
		for i := 2; i <= floats; i++ {
			d.run(d.crashDuringWrite(0, "x", fmt.Sprintf("f%d", i), 2, 0, 2)...)
		}
		d.run(d.completed(0, "x", fmt.Sprintf("v%d", floats+1), 0, 1)...)
		d.run(d.completed(0, "x", fmt.Sprintf("v%d", floats+2), 0, 1)...)
		d.readFrom(1, "x", 1, 2)
	}
}

// TestTransientOrphanN3 runs orphanScheduleN3 with recmem-node's one-round
// reads. Four floats only reach sn = 10, the second completed write's sn:
// the literal tags collide, and a tie goes to the lowest responder. Here
// that is p1, which holds the completed write, so the read returns v6 —
// the orphan on p2 loses the tie only because of where it sits: heard from
// a lower id than the completed write, it would win. Hardened tags settle
// the tie for the completed write wherever the values sit. Five floats
// (sn = 15 against 12) dominate outright, hardened or not: the read returns
// the orphan f5, and the checker catches it.
func TestTransientOrphanN3(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hardened bool
		floats   int
		want     string // the read's value; an f value is the orphan
	}{
		{"literal-four-floats", false, 4, "v6"},
		{"literal-five-floats", false, 5, "f5"},
		{"hardened-four-floats", true, 4, "v6"},
		{"hardened-five-floats", true, 5, "f5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{OneRoundReads: true, HardenedTags: tc.hardened}
			d := replayRun(t, rowDriver(t, 3, Transient, opts), orphanScheduleN3(tc.floats))
			if got := d.returned(); !slices.Equal(got, []string{tc.want}) {
				t.Fatalf("read = %q, want %s", got, tc.want)
			}
			err := atomicity.Check(d.hist, atomicity.Transient)
			var v *atomicity.Violation
			if orphan := tc.want[0] == 'f'; orphan && !errors.As(err, &v) {
				t.Fatalf("expected transient violation, got %v", err)
			} else if !orphan && err != nil {
				t.Fatalf("transient check: %v", err)
			}
		})
	}
}

// TestTransientTagCollision exposes the timestamp collision of the literal
// Fig. 5 transcription (docs/adr/0024): after the schedule, a floating write
// and a later completed write carry the *same* [sn, pid] tag with different
// values. With HardenedTags the recovery counter tiebreak keeps all tags
// distinct.
func TestTransientTagCollision(t *testing.T) {
	collision := func(d *driver) {
		// f3 floats onto p3 with sn = 6 (query max 3 at p4, rec 2).
		d.run(d.crashDuringWrite(0, "x", "f1", 3, 0, 1, 2)...) // sn 1 -> p3
		d.run(d.crashDuringWrite(0, "x", "f2", 4, 0, 1, 3)...) // sn 1+1+1 = 3 -> p4
		d.run(d.crashDuringWrite(0, "x", "f3", 3, 0, 1, 4)...) // sn 3+2+1 = 6 -> p3
		// Two more recoveries raise rec to 5, so a write quorumed on the
		// zeros mints sn = 0 + 5 + 1 = 6, colliding with f3's floating tag.
		for range 2 {
			d.run(crash(0))
			d.run(d.recovery(0)...)
		}
		d.run(d.completed(0, "x", "v6", 0, 1, 2)...)
	}
	for _, tc := range []struct {
		name     string
		hardened bool
	}{{"literal-collides", false}, {"hardened-distinct", true}} {
		t.Run(tc.name, func(t *testing.T) {
			d := replayRun(t, rowDriver(t, 5, Transient, Options{HardenedTags: tc.hardened}), collision)
			float, low := d.view(d.ps[3], "x"), d.view(d.ps[1], "x")
			if string(float.val) != "f3" || string(low.val) != "v6" {
				t.Fatalf("p3 holds %q and p1 %q, want f3 and v6", float.val, low.val)
			}
			switch {
			case !tc.hardened && float.tag != low.tag:
				t.Fatalf("expected tag collision, got %v vs %v", float.tag, low.tag)
			case tc.hardened && (float.tag.Seq != low.tag.Seq || float.tag.Writer != low.tag.Writer || float.tag.Rec == low.tag.Rec):
				t.Fatalf("expected same [sn,pid] disambiguated by rec, got %v vs %v", float.tag, low.tag)
			}
		})
	}
}
