package analysis

import (
	"sort"

	"repro/internal/resultset"
)

// ReuseCluster is one certificate served by multiple hostnames (§5.3.3).
type ReuseCluster struct {
	// Hosts lists the hostnames serving it.
	Hosts []string
	// Countries lists the distinct countries involved, sorted.
	Countries []string
}

// KeyReuseStats reproduces the §5.3.3 numbers.
type KeyReuseStats struct {
	// Clusters lists certificates served by >= 2 hosts, largest first.
	Clusters []ReuseCluster
	// CrossCountry lists clusters spanning >= 2 countries.
	CrossCountry []ReuseCluster
	// CrossCountryHosts counts hostnames involved in cross-country reuse
	// (paper: 1,390).
	CrossCountryHosts int
	// ByCountrySpan histograms cross-country clusters by the number of
	// countries sharing the certificate (paper: 108 by 2, 19 by 3, 11 by
	// 4, 1 by 24).
	ByCountrySpan map[int]int
	// ValidCrossCountry counts cross-country clusters that are valid
	// everywhere (the paper found none).
	ValidCrossCountry int
}

// ComputeKeyReuse clusters scan results by exact certificate, walking the
// set's fingerprint index.
func ComputeKeyReuse(set *resultset.Set) KeyReuseStats {
	s := KeyReuseStats{ByCountrySpan: map[int]int{}}
	for _, fp := range set.Fingerprints() {
		indices := set.ByFingerprint(fp)
		if len(indices) < 2 {
			continue
		}
		hosts := make([]string, 0, len(indices))
		ccSet := map[string]bool{}
		var countries []string
		allValid := true
		for _, i := range indices {
			r := set.At(i)
			hosts = append(hosts, r.Hostname)
			if cc := set.CountryOf(r.Hostname); cc != "" && !ccSet[cc] {
				ccSet[cc] = true
				countries = append(countries, cc)
			}
			if !r.Verify.Valid() {
				allValid = false
			}
		}
		sort.Strings(countries)
		sort.Strings(hosts)
		cl := ReuseCluster{Hosts: hosts, Countries: countries}
		s.Clusters = append(s.Clusters, cl)
		if len(countries) >= 2 {
			s.CrossCountry = append(s.CrossCountry, cl)
			s.CrossCountryHosts += len(hosts)
			s.ByCountrySpan[len(countries)]++
			if allValid {
				s.ValidCrossCountry++
			}
		}
	}
	sort.Slice(s.Clusters, func(i, j int) bool {
		if len(s.Clusters[i].Hosts) != len(s.Clusters[j].Hosts) {
			return len(s.Clusters[i].Hosts) > len(s.Clusters[j].Hosts)
		}
		return s.Clusters[i].Hosts[0] < s.Clusters[j].Hosts[0]
	})
	sort.Slice(s.CrossCountry, func(i, j int) bool {
		if len(s.CrossCountry[i].Countries) != len(s.CrossCountry[j].Countries) {
			return len(s.CrossCountry[i].Countries) > len(s.CrossCountry[j].Countries)
		}
		return s.CrossCountry[i].Hosts[0] < s.CrossCountry[j].Hosts[0]
	})
	return s
}

// MaxCountrySpan returns the widest cross-country cluster (paper: 24
// countries).
func (s KeyReuseStats) MaxCountrySpan() int {
	max := 0
	for span := range s.ByCountrySpan {
		if span > max {
			max = span
		}
	}
	return max
}

// SharedWildcardViolators reports, per country, certificates shared across
// multiple hostnames of the same country where every use is invalid — the
// Bangladesh/Colombia pattern. The result maps country code to the number
// of such certificates and affected hosts.
type WildcardViolation struct {
	Country string
	Certs   int
	Hosts   int
}

// ComputeWildcardViolators finds single-country invalid sharing over the
// fingerprint index.
func ComputeWildcardViolators(set *resultset.Set) []WildcardViolation {
	perCountry := map[string]*WildcardViolation{}
	for _, fp := range set.Fingerprints() {
		indices := set.ByFingerprint(fp)
		if !set.At(indices[0]).Chain[0].HasWildcard() {
			continue
		}
		// One fingerprint can span countries; tally per-country uses and
		// validity separately.
		uses := map[string]int{}
		var ccs []string
		invalid := map[string]bool{}
		for _, i := range indices {
			r := set.At(i)
			cc := set.CountryOf(r.Hostname)
			if cc == "" {
				continue
			}
			if _, seen := uses[cc]; !seen {
				ccs = append(ccs, cc)
				invalid[cc] = true
			}
			uses[cc]++
			if r.Verify.Valid() {
				invalid[cc] = false
			}
		}
		for _, cc := range ccs {
			if uses[cc] < 2 || !invalid[cc] {
				continue
			}
			v, ok := perCountry[cc]
			if !ok {
				v = &WildcardViolation{Country: cc}
				perCountry[cc] = v
			}
			v.Certs++
			v.Hosts += uses[cc]
		}
	}
	out := make([]WildcardViolation, 0, len(perCountry))
	for _, v := range perCountry {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hosts != out[j].Hosts {
			return out[i].Hosts > out[j].Hosts
		}
		return out[i].Country < out[j].Country
	})
	return out
}
