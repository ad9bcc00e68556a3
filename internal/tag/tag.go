// Package tag implements the lexicographic timestamps ("tags") that order
// written values in all register emulations of the paper.
//
// A tag is the pair [sn, pid] of Figure 4: a monotonically increasing
// sequence number together with the id of the writer that produced it, so
// that two writers that pick the same sequence number concurrently are still
// totally ordered. Tags are compared lexicographically, sequence number
// first.
//
// The optional Rec component supports the hardened variant of the transient
// algorithm (docs/adr/0024): it records the writer's persisted recovery
// count and acts as a final tiebreak so that a writer that crashed in the
// middle of a write can never re-issue the exact tag of the interrupted write
// for a different value. With the paper's literal algorithm Rec is always
// zero and comparison degenerates to the paper's [sn, pid] order.
package tag

import (
	"fmt"
	"strconv"
)

// Tag is a lexicographic write timestamp.
//
// The zero value is the initial tag of every register: it is smaller than
// (or equal to) every tag a write can produce, so the initial value ⊥ is
// never re-adopted over a written value.
type Tag struct {
	// Seq is the sequence number chosen by the writer (paper: sn).
	Seq int64
	// Writer is the id of the writer process (paper: the process id i
	// appended to the sequence number).
	Writer int32
	// Rec is the writer's recovery count at the time the tag was minted.
	// Always zero under the paper's literal algorithms; used only by the
	// hardened transient variant as a last-resort tiebreak.
	Rec int32
}

// Compare returns -1, 0 or +1 as t is smaller than, equal to, or greater
// than u in the lexicographic order [Seq, Writer, Rec].
func (t Tag) Compare(u Tag) int {
	switch {
	case t.Seq < u.Seq:
		return -1
	case t.Seq > u.Seq:
		return 1
	case t.Writer < u.Writer:
		return -1
	case t.Writer > u.Writer:
		return 1
	case t.Rec < u.Rec:
		return -1
	case t.Rec > u.Rec:
		return 1
	}
	return 0
}

// Less reports whether t orders strictly before u.
func (t Tag) Less(u Tag) bool { return t.Compare(u) < 0 }

// IsZero reports whether t is the initial tag.
func (t Tag) IsZero() bool { return t == Tag{} }

// Next returns the tag a writer mints after observing t as the highest
// timestamp — the majority maximum of a query round (Fig. 4), or the
// writer's own stable-backed view (§VI single-writer): the sequence number
// is incremented by 1 + extra (Fig. 5 uses extra = rec, Fig. 4 uses
// extra = 0) and the writer id replaces the old one. rec is the Rec
// tiebreak the minted tag carries: zero under the paper's literal
// algorithms, the persisted recovery count under hardened tags. This is the
// minting rule — core's write paths all advance timestamps through it.
func (t Tag) Next(writer int32, extra int64, rec int32) Tag {
	return Tag{Seq: t.Seq + extra + 1, Writer: writer, Rec: rec}
}

// Max returns the larger of t and u.
func Max(t, u Tag) Tag {
	if t.Less(u) {
		return u
	}
	return t
}

// String renders the tag as "[seq,writer]" or "[seq,writer,rec]" when a
// recovery tiebreak is present, matching the paper's notation.
func (t Tag) String() string {
	if t.Rec == 0 {
		return "[" + strconv.FormatInt(t.Seq, 10) + "," + strconv.FormatInt(int64(t.Writer), 10) + "]"
	}
	return fmt.Sprintf("[%d,%d,r%d]", t.Seq, t.Writer, t.Rec)
}
