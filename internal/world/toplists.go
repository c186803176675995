package world

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/hosting"
)

// RankedHost is one (government) entry of a top-million list.
type RankedHost struct {
	Host string
	Rank int
}

// TopLists models the public ranking datasets (§2.1, §4.1): the government
// membership of the Majestic, Cisco/Umbrella and Tranco millions, plus a
// deterministic generator for non-government top-million sites used by the
// §5.5 comparison.
type TopLists struct {
	// Max is the list length (paper: one million), scaled.
	Max int
	// TrancoGov, MajesticGov and CiscoGov list the government hostnames
	// present in each list with their ranks, sorted by rank.
	TrancoGov   []RankedHost
	MajesticGov []RankedHost
	CiscoGov    []RankedHost

	seed int64
	// trancoRankSet marks ranks taken by government sites.
	trancoRankSet map[int]bool
}

// NonGovAttrs are the deterministic attributes of a non-government
// top-million site.
type NonGovAttrs struct {
	HTTPS    bool
	Valid    bool
	HostKind hosting.Kind
}

// govOverlapTargets encodes Table 1: the number of government hostnames in
// the top 1K/10K/100K/1M of each public list.
var govOverlapTargets = map[string][4]int{
	"majestic": {56, 508, 2538, 12445},
	"cisco":    {0, 14, 433, 9296},
	"tranco":   {30, 373, 2351, 12293},
}

// buildTopLists assigns ranks to seed-list government sites so the Table 1
// overlaps hold, correlating better Tranco ranks with healthier sites so
// Figure 7's downward trend emerges from the data.
func (w *World) buildTopLists(r *rand.Rand) {
	t := &TopLists{
		Max:           w.scaled(paperTopMillion, 1000),
		seed:          w.Cfg.Seed ^ 0x746f706c697374, // "toplist"
		trancoRankSet: make(map[int]bool),
	}
	w.TopLists = t

	// Candidates: the seed sites (depth 0), scored so that valid-https
	// sites tend to earn better ranks.
	var candidates []string
	for _, h := range w.SeedHosts {
		candidates = append(candidates, h)
	}
	sort.Strings(candidates)
	type scored struct {
		host  string
		score float64
	}
	// Which sites appear in a list is independent of their health (the
	// overall ranked-gov validity matches the long tail, §5.5), but the
	// score decides rank quality among the chosen: valid sites drift
	// toward better ranks, producing Figure 7's downward trend.
	order := r.Perm(len(candidates))
	sc := make([]scored, 0, len(candidates))
	for _, idx := range order {
		h := candidates[idx]
		s := w.Sites[h]
		score := r.Float64()
		if s.Injected != ClassValid {
			score += 0.35
		}
		sc = append(sc, scored{h, score})
	}

	assign := func(list string) []RankedHost {
		targets := govOverlapTargets[list]
		buckets := [4][2]int{{1, 1000}, {1001, 10000}, {10001, 100000}, {100001, 1000000}}
		// Select the list membership uniformly, then order the selection
		// by score so better buckets receive healthier sites.
		needed := w.scaled(targets[3], 0)
		if needed > len(sc) {
			needed = len(sc)
		}
		selection := make([]scored, needed)
		copy(selection, sc[:needed])
		sort.Slice(selection, func(i, j int) bool { return selection[i].score < selection[j].score })

		prev := 0
		var out []RankedHost
		used := make(map[int]bool)
		ci := 0
		for b, cum := range targets {
			n := w.scaled(cum-prev, 0)
			prev = cum
			lo := w.scaled(buckets[b][0], 1)
			hi := w.scaled(buckets[b][1], 10)
			if hi > t.Max {
				hi = t.Max
			}
			if hi <= lo {
				continue
			}
			if n > (hi-lo)/2 {
				n = (hi - lo) / 2 // keep rank collisions cheap to resolve
			}
			for i := 0; i < n && ci < len(selection); i++ {
				rank := lo + r.Intn(hi-lo)
				for used[rank] {
					rank = lo + r.Intn(hi-lo)
				}
				used[rank] = true
				out = append(out, RankedHost{Host: selection[ci].host, Rank: rank})
				ci++
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
		return out
	}
	t.TrancoGov = assign("tranco")
	t.MajesticGov = assign("majestic")
	t.CiscoGov = assign("cisco")

	for _, rh := range t.TrancoGov {
		t.trancoRankSet[rh.Rank] = true
	}
}

// GovCountWithin counts government hostnames at or above the rank
// threshold in the named list ("tranco", "majestic", "cisco").
func (t *TopLists) GovCountWithin(list string, topK int) int {
	var hosts []RankedHost
	switch list {
	case "tranco":
		hosts = t.TrancoGov
	case "majestic":
		hosts = t.MajesticGov
	case "cisco":
		hosts = t.CiscoGov
	}
	n := sort.Search(len(hosts), func(i int) bool { return hosts[i].Rank > topK })
	return n
}

// nonGovRNG recycles NonGov's generators. Re-seeding a *rand.Rand yields
// exactly the draws of a fresh rand.New(rand.NewSource(seed)), without
// allocating and warming up a new ~4.9 KB source on every call.
var nonGovRNG sync.Pool

// NonGov deterministically generates the non-government site occupying the
// given Tranco rank. The rank must not belong to a government site.
// Validity declines with rank and improves on cloud/CDN hosting, matching
// the gradients of Figures 6 and 7.
func (t *TopLists) NonGov(rank int) NonGovAttrs {
	seed := t.seed ^ int64(rank)*-0x61c8864680b583eb
	r, _ := nonGovRNG.Get().(*rand.Rand)
	if r == nil {
		r = rand.New(rand.NewSource(seed))
	} else {
		r.Seed(seed)
	}
	defer nonGovRNG.Put(r)
	frac := float64(rank) / float64(t.Max)
	// Each rank's stream opens with one unused draw: the attribute draws
	// below, and so every rank's attributes, depend on their position in it.
	r.Intn(1 << 16)
	var a NonGovAttrs
	switch x := r.Float64(); {
	case x < 0.30-0.08*frac:
		a.HostKind = hosting.Cloud
	case x < 0.42-0.08*frac:
		a.HostKind = hosting.CDN
	default:
		a.HostKind = hosting.Private
	}
	pHTTPS := 0.92 - 0.25*frac
	a.HTTPS = r.Float64() < pHTTPS
	if a.HTTPS {
		pValid := 0.80 - 0.18*frac
		switch a.HostKind {
		case hosting.Cloud, hosting.CDN:
			pValid *= 1.15
		default:
			pValid *= 0.88
		}
		a.Valid = r.Float64() < clamp(pValid, 0, 0.99)
	}
	return a
}

// NonGovRanks returns every rank in [1, Max] not held by a government
// site. Used for uniform and rank-matched sampling (§5.5).
func (t *TopLists) NonGovRanks() []int {
	out := make([]int, 0, t.Max-len(t.trancoRankSet))
	for rank := 1; rank <= t.Max; rank++ {
		if !t.trancoRankSet[rank] {
			out = append(out, rank)
		}
	}
	return out
}
