package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummaryQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 2, 5, 4}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{seq(9), 3, 5, 7},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = q1 %v med %v q3 %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
		if s.N != len(c.xs) {
			t.Errorf("N = %d, want %d", s.N, len(c.xs))
		}
	}
}

func TestSummaryTail(t *testing.T) {
	cases := []struct {
		n         int
		pct, tail float64
	}{
		{1000, 99, 990},  // p99 rank 990 leaves exactly 10 above
		{5000, 99, 4950}, // plenty beyond p99
		{999, 98.9, 989}, // p99 would leave 9 above: fall back to rank 989
		{200, 95, 190},   // 10 above rank 190
		{30, 66.6, 20},
		{10, 50, 5.5}, // no rank has 10 above: the median stands in
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.TailPct != c.pct || s.Tail != c.tail {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", c.n, s.TailPct, s.Tail, c.pct, c.tail)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if c.n > tailBeyond && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestSummaryEmptyAndGeomean(t *testing.T) {
	if s := summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", g)
	}
}
