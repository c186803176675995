package analysis

import (
	"sort"

	"repro/internal/hosting"
	"repro/internal/resultset"
)

// HostingBucket aggregates validity for one hosting category or provider
// (Figures 5, 6, A.1).
type HostingBucket struct {
	Label string
	Total int
	// HTTPS counts hosts attempting https.
	HTTPS int
	// Valid counts hosts with fully valid https.
	Valid int
	// HTTPOnly counts plain-http hosts.
	HTTPOnly int
}

// ValidPctOfTotal is the share of all hosts in the bucket with valid https
// — the quantity Figure 5 plots.
func (b HostingBucket) ValidPctOfTotal() float64 { return pct(b.Valid, b.Total) }

// fillBucket tallies one kind or provider's index entries (available
// hosts only — the set's hosting indexes exclude unavailable hosts).
func fillBucket(set *resultset.Set, label string, indices []int) HostingBucket {
	b := HostingBucket{Label: label}
	for _, i := range indices {
		r := set.At(i)
		b.Total++
		switch {
		case r.ValidHTTPS():
			b.HTTPS++
			b.Valid++
		case r.HasHTTPS():
			b.HTTPS++
		default:
			b.HTTPOnly++
		}
	}
	return b
}

// HostingBreakdown groups available hosts by hosting kind
// (Cloud/CDN/Private) from the set's kind index.
func HostingBreakdown(set *resultset.Set) []HostingBucket {
	out := make([]HostingBucket, 0, 3)
	for _, k := range []hosting.Kind{hosting.Cloud, hosting.CDN, hosting.Private} {
		out = append(out, fillBucket(set, k.String(), set.ByKind(k)))
	}
	return out
}

// ProviderBreakdown groups available hosts by provider name (AWS, Azure,
// ..., Private) from the set's provider index, sorted by total descending.
func ProviderBreakdown(set *resultset.Set) []HostingBucket {
	providers := set.Providers()
	out := make([]HostingBucket, 0, len(providers))
	for _, p := range providers {
		out = append(out, fillBucket(set, p, set.ByProvider(p)))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// CloudCDNShare returns the fraction of available hosts on public cloud or
// CDN (§6.1.2: 13.02% for the US; §6.2.2: 0.21% for ROK).
func CloudCDNShare(set *resultset.Set) float64 {
	cloud := len(set.ByKind(hosting.Cloud)) + len(set.ByKind(hosting.CDN))
	total := cloud + len(set.ByKind(hosting.Private))
	if total == 0 {
		return 0
	}
	return float64(cloud) / float64(total)
}
