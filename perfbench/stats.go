package main

import (
	"math"
	"sort"
)

// summary holds the order statistics the benchmark reports for one
// sample set: the median and quartiles, and the tail — the highest
// percentile (at most p99) that still has at least tailBeyond samples
// above it, so a tail figure never rests on a handful of points.
type summary struct {
	N        int
	Median   float64
	Q1, Q3   float64
	TailPct  float64 // the tail's percentile, e.g. 99 or 96.5
	Tail     float64
	Min, Max float64
}

// tailBeyond is how many samples must lie above a reported tail
// percentile.
const tailBeyond = 10

// summarize computes the summary of xs; xs is not modified.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct, tail := tailOf(s)
	return summary{
		N:       len(s),
		Median:  quantile(s, 0.5),
		Q1:      quantile(s, 0.25),
		Q3:      quantile(s, 0.75),
		TailPct: pct,
		Tail:    tail,
		Min:     s[0],
		Max:     s[len(s)-1],
	}
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (position q·(n−1)).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailOf returns the tail percentile and its value for sorted, by the
// nearest-rank rule: p99 when at least tailBeyond samples lie above the
// p99 rank, otherwise the rank with exactly tailBeyond samples above it,
// reported as the percentile that rank sits at. With tailBeyond samples
// or fewer no rank qualifies, and the median stands in.
func tailOf(sorted []float64) (pct, v float64) {
	n := len(sorted)
	if n <= tailBeyond {
		return 50, quantile(sorted, 0.5)
	}
	r99 := int(math.Ceil(0.99 * float64(n))) // 1-based nearest rank
	if n-r99 >= tailBeyond {
		return 99, sorted[r99-1]
	}
	r := n - tailBeyond
	return math.Floor(1000*float64(r)/float64(n)) / 10, sorted[r-1]
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
