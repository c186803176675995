package analysis

import (
	"sort"

	"repro/internal/resultset"
	"repro/internal/truststore"
)

// IssuerStats aggregates one issuing CA's government certificates
// (Figures 2, 8, 11).
type IssuerStats struct {
	// Issuer is the issuing CA common name; self-signed leaves report
	// their own subject, matching how OpenSSL displays them.
	Issuer  string
	Total   int
	Valid   int
	Invalid int
}

// InvalidPct is the issuer's invalidity rate.
func (s IssuerStats) InvalidPct() float64 { return pct(s.Invalid, s.Total) }

// isEVLeaf reports whether the result's leaf carries a trusted EV policy.
func isEVLeaf(set *resultset.Set, i int, store *truststore.Store) bool {
	for _, oid := range set.At(i).Chain[0].PolicyOIDs {
		if store.IsTrustedEVPolicy(oid) {
			return true
		}
	}
	return false
}

// IssuerBreakdown aggregates the set's issuer index, sorted by total
// descending (then name). Hosts without a retrieved chain are skipped, as
// are the paper's 92 hosts without issuer information.
func IssuerBreakdown(set *resultset.Set) []IssuerStats {
	issuers := set.Issuers()
	out := make([]IssuerStats, 0, len(issuers))
	for _, cn := range issuers {
		s := IssuerStats{Issuer: cn}
		for _, i := range set.ByIssuer(cn) {
			s.Total++
			if set.At(i).Verify.Valid() {
				s.Valid++
			} else {
				s.Invalid++
			}
		}
		out = append(out, s)
	}
	sortIssuerStats(out)
	return out
}

func sortIssuerStats(out []IssuerStats) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Issuer < out[j].Issuer
	})
}

// TopIssuers truncates the breakdown to the n largest issuers, as the
// paper's Figure 2 shows the top 40.
func TopIssuers(stats []IssuerStats, n int) []IssuerStats {
	if n > len(stats) {
		n = len(stats)
	}
	return stats[:n]
}

// EVIssuerBreakdown restricts the breakdown to EV certificates (Figures
// A.2, A.3, A.6): only hosts whose leaf carries a trusted EV policy.
func EVIssuerBreakdown(set *resultset.Set, store *truststore.Store) []IssuerStats {
	var out []IssuerStats
	for _, cn := range set.Issuers() {
		s := IssuerStats{Issuer: cn}
		for _, i := range set.ByIssuer(cn) {
			if !isEVLeaf(set, i, store) {
				continue
			}
			s.Total++
			if set.At(i).Verify.Valid() {
				s.Valid++
			} else {
				s.Invalid++
			}
		}
		if s.Total > 0 {
			out = append(out, s)
		}
	}
	sortIssuerStats(out)
	return out
}

// EVStats summarizes EV usage across the scan (§5.3: 2,145 hostnames,
// 4.24% of the analyzed population).
type EVStats struct {
	// Hosts is the number of hosts presenting a trusted EV certificate.
	Hosts int
	// Analyzed is the number of hosts with issuer-bearing chains.
	Analyzed int
	// Valid counts EV hosts whose chains fully validate.
	Valid int
}

// ComputeEVStats counts EV hosts over the issuer index.
func ComputeEVStats(set *resultset.Set, store *truststore.Store) EVStats {
	s := EVStats{Analyzed: set.IssuerAnalyzed()}
	for _, cn := range set.Issuers() {
		for _, i := range set.ByIssuer(cn) {
			if !isEVLeaf(set, i, store) {
				continue
			}
			s.Hosts++
			if set.At(i).Verify.Valid() {
				s.Valid++
			}
		}
	}
	return s
}
