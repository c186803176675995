// Package stats provides the statistical machinery of the analysis: simple
// linear regression (Figure 7), rank binning, rank-matched stratified
// sampling (§5.5) and descriptive summaries.
package stats

import (
	"errors"
	"math"
	"math/rand"
)

// ErrInsufficientData is returned when an estimator needs more points.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Linear is a fitted simple linear regression y = Intercept + Slope*x.
type Linear struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitLinear fits ordinary least squares to the points.
func FitLinear(x, y []float64) (Linear, error) {
	if len(x) != len(y) {
		return Linear{}, errors.New("stats: x and y lengths differ")
	}
	n := len(x)
	if n < 3 {
		return Linear{}, ErrInsufficientData
	}
	var sumX, sumY float64
	for i := range x {
		sumX += x[i]
		sumY += y[i]
	}
	meanX, meanY := sumX/float64(n), sumY/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-meanX, y[i]-meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, errors.New("stats: x has zero variance")
	}
	slope := sxy / sxx
	intercept := meanY - slope*meanX
	var sse float64
	for i := range x {
		resid := y[i] - (intercept + slope*x[i])
		sse += resid * resid
	}
	r2 := 0.0
	if syy > 0 {
		r2 = 1 - sse/syy
	}
	return Linear{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Bin is one rank bucket with an aggregated rate.
type Bin struct {
	// Lo is the bucket's inclusive lower bound; it spans one bucket width.
	Lo float64
	// Center is the bucket midpoint.
	Center float64
	// Count is the number of observations.
	Count int
	// Rate is the mean of the y values (e.g. share of valid https).
	Rate float64
}

// BinRate groups (x, ok) observations into n equal-width buckets over
// [lo, hi) and computes the success rate per bucket, as Figure 7 does with
// 50 rank bins.
func BinRate(xs []float64, oks []bool, n int, lo, hi float64) []Bin {
	if n <= 0 || hi <= lo {
		return nil
	}
	width := (hi - lo) / float64(n)
	bins := make([]Bin, n)
	counts := make([]int, n)
	hits := make([]int, n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Center = bins[i].Lo + width/2
	}
	for i, x := range xs {
		if x < lo || x >= hi {
			continue
		}
		b := int((x - lo) / width)
		if b >= n {
			b = n - 1
		}
		counts[b]++
		if oks[i] {
			hits[b]++
		}
	}
	for i := range bins {
		bins[i].Count = counts[i]
		if counts[i] > 0 {
			bins[i].Rate = float64(hits[i]) / float64(counts[i])
		}
	}
	return bins
}

// Summary holds descriptive statistics.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// SampleUniform draws k distinct elements uniformly without replacement.
// When k >= len(items) it returns a shuffled copy of all items.
func SampleUniform[T any](r *rand.Rand, items []T, k int) []T {
	n := len(items)
	if k > n {
		k = n
	}
	idx := r.Perm(n)[:k]
	out := make([]T, 0, k)
	for _, i := range idx {
		out = append(out, items[i])
	}
	return out
}

// RankMatched draws, for each of n equal-width rank buckets over
// [1, maxRank], as many candidates as there are reference ranks in that
// bucket — the §5.5 sampling strategy that matches the non-government
// sample's rank distribution to the government sites'. Candidates are
// (rank, payload) pairs; the caller supplies the candidate ranks via rankOf.
func RankMatched[T any](r *rand.Rand, reference []int, candidates []T, rankOf func(T) int, n, maxRank int) []T {
	if n <= 0 || maxRank <= 0 {
		return nil
	}
	width := float64(maxRank) / float64(n)
	bucket := func(rank int) int {
		b := int(float64(rank-1) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		return b
	}
	want := make([]int, n)
	for _, rank := range reference {
		want[bucket(rank)]++
	}
	byBucket := make([][]T, n)
	for _, c := range candidates {
		b := bucket(rankOf(c))
		byBucket[b] = append(byBucket[b], c)
	}
	var out []T
	for b := 0; b < n; b++ {
		out = append(out, SampleUniform(r, byBucket[b], want[b])...)
	}
	return out
}
