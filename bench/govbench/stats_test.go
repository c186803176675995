package main

import (
	"math"
	"testing"
)

func seq(lo, hi int) []float64 {
	var out []float64
	for v := lo; v <= hi; v++ {
		out = append(out, float64(v))
	}
	return out
}

func TestSummarizeLatency(t *testing.T) {
	inf := math.Inf(1)
	withFailures := append(seq(1, 989), inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf)
	cases := []struct {
		name    string
		samples []float64
		want    latency
	}{
		{"empty", nil, latency{}},
		// n=5: no rung has ten samples beyond it, so the tail is the max.
		{"few", []float64{5, 1, 4, 2, 3}, latency{N: 5, P50: 3, Tail: 5, TailPct: 100}},
		// n=20: p99, p90, p75 have 0, 2, 5 beyond; p50 (rank 10) has 10.
		{"twenty", seq(1, 20), latency{N: 20, P50: 10.5, Tail: 10, TailPct: 50}},
		// n=1000: p99 is rank 990 with exactly 10 beyond it.
		{"thousand", seq(1, 1000), latency{N: 1000, P50: 500.5, Tail: 990, TailPct: 99}},
		// Eleven failed requests (+Inf) put rank 990 at the first failure.
		{"failures", withFailures, latency{N: 1000, P50: 500.5, Tail: inf, TailPct: 99}},
	}
	for _, c := range cases {
		if got := summarizeLatency(c.samples); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(data, n=4)
// (method "exclusive"), worked by hand from its definition.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{seq(1, 10), 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates below and above the data
		{[]float64{7}, 7, 7},
		{[]float64{9, 10, 11, 12, 13}, 9.5, 12.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarizeRuns(t *testing.T) {
	s := summarizeRuns([]float64{10, 12, 11, 13, 9})
	want := spread{N: 5, Median: 11, Q1: 9.5, Q3: 12.5, RelIQR: 3.0 / 11, Min: 9, Max: 13}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if m := summarizeRuns([]float64{4, 1, 3, 2}).Median; m != 2.5 {
		t.Fatalf("even-length median = %v, want 2.5", m)
	}
}

func TestPercentileOf(t *testing.T) {
	if got := percentileOf([]float64{5, 3, 1, 4, 2, 10, 9, 8, 7, 6}, 90); got != 9 {
		t.Fatalf("p90 = %v, want 9", got)
	}
	if got := percentileOf(nil, 50); got != 0 {
		t.Fatalf("p50 of nothing = %v, want 0", got)
	}
}
