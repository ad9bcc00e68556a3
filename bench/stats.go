package main

import (
	"math"
	"slices"
	"sort"
)

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 over 300 samples is the third-largest value and says nothing.
const minBeyond = 10

// topPercentile returns the highest rung of the ladder that still has at
// least minBeyond of n samples beyond it, and false when not even the median
// qualifies.
func topPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if n-rank(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// rank is the nearest-rank position (from 1) of the p-th percentile among n
// sorted samples; the epsilon keeps 99.9 % of 10000 at 9990.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// dist summarizes one timing: the median, the 99th percentile and the
// sample count that qualifies them. p99 is 0 when fewer than 1000 samples
// leave it without ten samples beyond it.
type dist struct {
	n        int
	p50, p99 float64
}

// summarize sorts samples in place and scales them by div (1e3 turns
// nanoseconds into microseconds).
func summarize(samples []int64, div float64) dist {
	slices.Sort(samples)
	d := dist{n: len(samples), p50: float64(percentile(samples, 50)) / div}
	if top, _ := topPercentile(len(samples)); top >= 99 {
		d.p99 = float64(percentile(samples, 99)) / div
	}
	return d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Bounds. A metric's regression bound is fixed from the spread the reference
// runs showed: twice the spread, never tighter than minBound, and never
// looser than maxBound — a metric noisier than that cannot carry a headline
// and is demoted to the per-layer list instead.
const (
	minBound = 0.10
	maxBound = 0.25
)

// spread is the interquartile range of values as a share of their median,
// with the exclusive-method quartiles of Python's statistics.quantiles(n=4),
// which is what the driver computes.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := slices.Clone(values)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := min(max(k*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(k*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// boundFor derives a bound from an observed spread; ok is false when the
// spread is too wide for any admissible bound to cover it twice.
func boundFor(observed float64) (bound float64, ok bool) {
	b := math.Max(minBound, 2*observed)
	if b > maxBound {
		return maxBound, false
	}
	return math.Round(b*100) / 100, true
}

// worseBy returns by what share of ref the value got worse (negative when
// it got better), for a metric where higher or lower is better.
func worseBy(ref, val float64, higherBetter bool) float64 {
	if ref == 0 {
		return 0
	}
	if higherBetter {
		return (ref - val) / math.Abs(ref)
	}
	return (val - ref) / math.Abs(ref)
}

// agree reports whether two runs of the same code agree within bound,
// whichever of them is taken as the reference.
func agree(a, b, bound float64, higherBetter bool) bool {
	return worseBy(a, b, higherBetter) <= bound && worseBy(b, a, higherBetter) <= bound
}
