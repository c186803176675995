package analysis

import (
	"math/rand"

	"repro/internal/hosting"
	"repro/internal/resultset"
	"repro/internal/stats"
	"repro/internal/world"
)

// OverlapRow is one row of Table 1.
type OverlapRow struct {
	TopK     int
	Majestic int
	Cisco    int
	Tranco   int
}

// ComputeOverlap reproduces Table 1: government hostnames inside the top
// 1K/10K/100K/1M of each public list (thresholds scale with the list).
func ComputeOverlap(tl *world.TopLists) []OverlapRow {
	var rows []OverlapRow
	for _, div := range []int{1000, 100, 10, 1} {
		k := tl.Max / div
		if k < 1 {
			k = 1
		}
		rows = append(rows, OverlapRow{
			TopK:     k,
			Majestic: tl.GovCountWithin("majestic", k),
			Cisco:    tl.GovCountWithin("cisco", k),
			Tranco:   tl.GovCountWithin("tranco", k),
		})
	}
	return rows
}

// RankSeries is one population of the Figure 7 comparison.
type RankSeries struct {
	Name string
	N    int
	// MeanRank and StdRank describe the rank distribution (§5.5 reports
	// them for each sample).
	MeanRank float64
	StdRank  float64
	// ValidRate is the overall share of valid https.
	ValidRate float64
	// Bins are the 50 rank buckets of Figure 7.
	Bins []stats.Bin
	// Fit is the linear regression of validity on rank.
	Fit stats.Linear
	// FitErr is non-nil when the regression could not be fitted.
	FitErr error
	// Hosting carries the Figure 6 per-hosting-kind validity.
	Hosting []HostingBucket
}

// RankComparison carries Figure 7's three series plus the top-12K
// non-government population of Figure 6.
type RankComparison struct {
	Gov       RankSeries
	Random    RankSeries
	Matched   RankSeries
	TopNonGov RankSeries
}

// rankedSample is one observation.
type rankedSample struct {
	rank  int
	valid bool
	kind  hosting.Kind
}

// ComputeRankComparison reproduces §5.5: the Tranco-ranked government
// hosts against (1) a uniform non-government sample of equal size and (2) a
// rank-distribution-matched sample, with 50-bin rates and linear fits.
// Government validity comes from the set's host index; the list is still
// walked in Tranco order so the float accumulation is unchanged.
func ComputeRankComparison(tl *world.TopLists, set *resultset.Set, seed int64, nBins int) RankComparison {
	r := rand.New(rand.NewSource(seed))

	var gov []rankedSample
	var govRanks []int
	for _, rh := range tl.TrancoGov {
		res, ok := set.Lookup(rh.Host)
		if !ok {
			continue
		}
		gov = append(gov, rankedSample{rank: rh.Rank, valid: res.ValidHTTPS(), kind: res.HostKind})
		govRanks = append(govRanks, rh.Rank)
	}

	nonGovRanks := tl.NonGovRanks()
	sample := func(ranks []int) []rankedSample {
		out := make([]rankedSample, 0, len(ranks))
		for _, rank := range ranks {
			a := tl.NonGov(rank)
			out = append(out, rankedSample{rank: rank, valid: a.Valid, kind: a.HostKind})
		}
		return out
	}

	randomRanks := stats.SampleUniform(r, nonGovRanks, len(gov))
	matchedRanks := stats.RankMatched(r, govRanks, nonGovRanks, func(x int) int { return x }, nBins, tl.Max)
	topRanks := nonGovRanks
	if len(topRanks) > len(gov) {
		topRanks = topRanks[:len(gov)]
	}

	return RankComparison{
		Gov:       buildSeries("government", gov, nBins, tl.Max),
		Random:    buildSeries("non-government (uniform)", sample(randomRanks), nBins, tl.Max),
		Matched:   buildSeries("non-government (rank-matched)", sample(matchedRanks), nBins, tl.Max),
		TopNonGov: buildSeries("non-government (top)", sample(topRanks), nBins, tl.Max),
	}
}

func buildSeries(name string, samples []rankedSample, nBins, maxRank int) RankSeries {
	s := RankSeries{Name: name, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	xs := make([]float64, len(samples))
	oks := make([]bool, len(samples))
	ys := make([]float64, len(samples))
	ranks := make([]float64, len(samples))
	valid := 0
	kinds := map[hosting.Kind]*HostingBucket{
		hosting.Cloud:   {Label: "Cloud"},
		hosting.CDN:     {Label: "CDN"},
		hosting.Private: {Label: "Private"},
	}
	for i, sm := range samples {
		xs[i] = float64(sm.rank)
		ranks[i] = float64(sm.rank)
		oks[i] = sm.valid
		if sm.valid {
			ys[i] = 1
			valid++
		}
		b := kinds[sm.kind]
		b.Total++
		if sm.valid {
			b.Valid++
			b.HTTPS++
		}
	}
	sum := stats.Summarize(ranks)
	s.MeanRank, s.StdRank = sum.Mean, sum.StdDev
	s.ValidRate = float64(valid) / float64(len(samples))
	s.Bins = stats.BinRate(xs, oks, nBins, 1, float64(maxRank)+1)
	s.Fit, s.FitErr = stats.FitLinear(xs, ys)
	s.Hosting = []HostingBucket{*kinds[hosting.Cloud], *kinds[hosting.CDN], *kinds[hosting.Private]}
	return s
}
