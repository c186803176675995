package analysis

import (
	"repro/internal/resultset"
)

// CountryRow is one country of the Figure 1 choropleth: availability,
// https support among available sites, and validity among https sites.
type CountryRow struct {
	Country   string
	Hosts     int
	Available int
	HTTPS     int
	Valid     int
}

// AvailablePct is the share of the country's hostnames returning a 200.
func (c CountryRow) AvailablePct() float64 { return pct(c.Available, c.Hosts) }

// HTTPSPct is the share of available sites supporting https.
func (c CountryRow) HTTPSPct() float64 { return pct(c.HTTPS, c.Available) }

// ValidPct is the share of https sites with valid certificates.
func (c CountryRow) ValidPct() float64 { return pct(c.Valid, c.HTTPS) }

// CountryBreakdown reads the per-country aggregates the set's build pass
// accumulated (attribution comes from the set's CountryOf option), sorted
// by country code.
func CountryBreakdown(set *resultset.Set) []CountryRow {
	aggs := set.CountryAggs()
	out := make([]CountryRow, len(aggs))
	for i, a := range aggs {
		out[i] = CountryRow{Country: a.Country, Hosts: a.Hosts, Available: a.Available, HTTPS: a.HTTPS, Valid: a.Valid}
	}
	return out
}

// CrossGovStats summarizes the cross-government link graph (Figure A.5,
// §7.3.3).
type CrossGovStats struct {
	// OutDegree maps a country to the number of *other* governments its
	// sites link to.
	OutDegree map[string]int
	// ShareLinkingAtLeast7 is the fraction of countries linking to >= 7
	// other governments (paper: 75%).
	ShareLinkingAtLeast7 float64
	// HeavilyLinked counts countries referenced by >= 50 other
	// governments.
	HeavilyLinked int
	// TopLinker is the country with the highest out-degree (paper:
	// Austria, 70 governments).
	TopLinker string
	// TopLinkerDegree is its out-degree.
	TopLinkerDegree int
}

// ComputeCrossGov walks the link graph. links maps each hostname to its
// outbound link hosts; countryOf attributes hostnames to governments.
func ComputeCrossGov(links map[string][]string, countryOf func(string) string) CrossGovStats {
	outSets := map[string]map[string]bool{}
	inSets := map[string]map[string]bool{}
	for src, targets := range links {
		srcCC := countryOf(src)
		if srcCC == "" {
			continue
		}
		for _, dst := range targets {
			dstCC := countryOf(dst)
			if dstCC == "" || dstCC == srcCC {
				continue
			}
			if outSets[srcCC] == nil {
				outSets[srcCC] = map[string]bool{}
			}
			outSets[srcCC][dstCC] = true
			if inSets[dstCC] == nil {
				inSets[dstCC] = map[string]bool{}
			}
			inSets[dstCC][srcCC] = true
		}
	}
	s := CrossGovStats{OutDegree: map[string]int{}}
	atLeast7 := 0
	for cc, set := range outSets {
		s.OutDegree[cc] = len(set)
		if len(set) >= 7 {
			atLeast7++
		}
		if len(set) > s.TopLinkerDegree {
			s.TopLinkerDegree = len(set)
			s.TopLinker = cc
		}
	}
	for _, set := range inSets {
		if len(set) >= 50 {
			s.HeavilyLinked++
		}
	}
	if len(outSets) > 0 {
		s.ShareLinkingAtLeast7 = float64(atLeast7) / float64(len(outSets))
	}
	return s
}
