package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a latency tail is reported at, highest
// first. A tail is only as good as the samples behind it, so the reported
// tail is the first rung with at least minBeyond samples above it.
var tailLadder = []float64{99, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as the tail.
const minBeyond = 10

// latency summarizes one run's per-operation latencies. Failed operations
// enter as +Inf, so they land in (and can only worsen) the tail.
type latency struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // percentile Tail was taken at; 100 means the maximum
}

// summarizeLatency sorts samples in place and reports the median (the
// mean of the middle two for an even count, which keeps runs of a few
// long operations comparable) and the highest ladder percentile with at
// least minBeyond samples beyond it, by nearest rank; when no rung
// qualifies (fewer than 2·minBeyond samples) the tail is the maximum.
func summarizeLatency(samples []float64) latency {
	if len(samples) == 0 {
		return latency{}
	}
	sort.Float64s(samples)
	n := len(samples)
	l := latency{N: n, P50: median(samples), Tail: samples[n-1], TailPct: 100}
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			l.Tail, l.TailPct = nearestRank(samples, p), p
			break
		}
	}
	return l
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// nearestRank returns percentile p of ascending-sorted samples.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// spread summarizes one metric over repeated runs the way the acceptance
// rule reads them: median and the quartiles of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
type spread struct {
	N        int
	Median   float64
	Q1, Q3   float64
	RelIQR   float64 // (Q3-Q1)/|Median|; 0 when the median is 0
	Min, Max float64
}

// summarizeRuns computes the run-to-run spread of values (not modified).
func summarizeRuns(values []float64) spread {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := spread{N: len(v)}
	if len(v) == 0 {
		return s
	}
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = median(v)
	s.Q1, s.Q3 = quartiles(v)
	if s.Median != 0 {
		s.RelIQR = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return s
}

// medianOf is the median of unsorted values (0 when there are none).
func medianOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return median(v)
}

// percentileOf is the nearest-rank percentile p of unsorted values (0
// when there are none).
func percentileOf(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return nearestRank(v, p)
}

// median of ascending-sorted values: the middle one, or the mean of the
// middle two (statistics.median).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles of ascending-sorted values, exactly as Python's
// statistics.quantiles(data, n=4, method="exclusive") computes them.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
