// Package recommend turns scan results into the §8 recommendations: for
// every government host it evaluates the paper's hardening checklist — use
// https, enforce the upgrade, fix certificate errors, retire weak keys and
// signature algorithms, stop sharing keys, publish CAA records, enroll in
// HSTS preload — and aggregates the findings per country for the registrar
// reports.
package recommend

import (
	"fmt"
	"sort"

	"repro/internal/cert"
	"repro/internal/resultset"
	"repro/internal/scanner"
)

// Rule identifies one checklist item.
type Rule int

// The §8 checklist.
const (
	// AdoptHTTPS: the host serves plain http only.
	AdoptHTTPS Rule = iota
	// EnforceUpgrade: valid https exists but http is served without a
	// redirect (§5.1's "failed upgrades").
	EnforceUpgrade
	// FixCertificate: the served chain does not validate.
	FixCertificate
	// RetireWeakKey: RSA below 2048 bits.
	RetireWeakKey
	// RetireWeakSignature: MD5 or SHA1 signatures (§5.3.2).
	RetireWeakSignature
	// StopKeySharing: the private key is shared with other hosts
	// (§5.3.3, §8.1).
	StopKeySharing
	// PublishCAA: no CAA record restricts issuance (§5.3.4, §8.2).
	PublishCAA
	// EnableHSTS: valid https without Strict-Transport-Security (§8.2).
	EnableHSTS
	// ShortenLifetime: certificate issued for longer than the 825-day
	// CA/Browser-Forum ceiling (§5.3.1).
	ShortenLifetime
)

var ruleInfo = map[Rule]struct {
	name     string
	severity int // 3 = critical, 2 = important, 1 = advisory
}{
	AdoptHTTPS:          {"adopt-https", 3},
	FixCertificate:      {"fix-certificate", 3},
	StopKeySharing:      {"stop-key-sharing", 3},
	RetireWeakKey:       {"retire-weak-key", 2},
	RetireWeakSignature: {"retire-weak-signature", 2},
	EnforceUpgrade:      {"enforce-https-upgrade", 2},
	ShortenLifetime:     {"shorten-certificate-lifetime", 1},
	PublishCAA:          {"publish-caa-record", 1},
	EnableHSTS:          {"enable-hsts", 1},
}

// String names the rule.
func (r Rule) String() string { return ruleInfo[r].name }

// Severity returns 3 (critical), 2 (important) or 1 (advisory).
func (r Rule) Severity() int { return ruleInfo[r].severity }

// Finding is one recommendation for one host.
type Finding struct {
	Hostname string
	Rule     Rule
}

// CAAChecker reports whether a hostname has any CAA record; satisfied by
// a closure over dnssim.Zone.LookupCAA.
type CAAChecker func(hostname string) bool

// Evaluate runs the checklist over every host in the set, in scan input
// order. sharedKeys marks key IDs used by more than one host (precomputed
// by SharedKeyIDs).
func Evaluate(set *resultset.Set, hasCAA CAAChecker, sharedKeys map[cert.KeyID]bool) []Finding {
	var out []Finding
	add := func(host string, rule Rule) {
		out = append(out, Finding{Hostname: host, Rule: rule})
	}
	for i := 0; i < set.Len(); i++ {
		r := set.At(i)
		if !r.Available {
			continue
		}
		cat := r.Category()
		switch {
		case cat == scanner.CatHTTPOnly:
			add(r.Hostname, AdoptHTTPS)
			continue
		case cat.IsInvalidHTTPS():
			add(r.Hostname, FixCertificate)
		case cat == scanner.CatValid && r.ServesHTTP && r.ServesHTTPS:
			add(r.Hostname, EnforceUpgrade)
		}
		if len(r.Chain) > 0 {
			leaf := r.Chain[0]
			if leaf.PublicKey.Type == cert.KeyRSA && leaf.PublicKey.Bits < 2048 {
				add(r.Hostname, RetireWeakKey)
			}
			if leaf.SignatureAlgorithm.IsWeak() {
				add(r.Hostname, RetireWeakSignature)
			}
			if sharedKeys != nil && sharedKeys[leaf.PublicKey.ID] {
				add(r.Hostname, StopKeySharing)
			}
			if leaf.ValidityDays() > 825 {
				add(r.Hostname, ShortenLifetime)
			}
		}
		if r.ValidHTTPS() {
			if hasCAA != nil && !hasCAA(r.Hostname) {
				add(r.Hostname, PublishCAA)
			}
			if !r.HSTS {
				add(r.Hostname, EnableHSTS)
			}
		}
	}
	return out
}

// SharedKeyIDs returns the key identities served by more than one host,
// straight from the set's key index (a scan holds one result per
// hostname, so the bucket length is the distinct-host count).
func SharedKeyIDs(set *resultset.Set) map[cert.KeyID]bool {
	out := map[cert.KeyID]bool{}
	for _, id := range set.KeyIDs() {
		if len(set.ByKeyID(id)) > 1 {
			out[id] = true
		}
	}
	return out
}

// Summary aggregates findings by rule.
type Summary struct {
	Rule  Rule
	Hosts int
}

// Summarize counts affected hosts per rule, most-affected first; within a
// count, higher severity first.
func Summarize(findings []Finding) []Summary {
	hosts := map[Rule]map[string]bool{}
	for _, f := range findings {
		if hosts[f.Rule] == nil {
			hosts[f.Rule] = map[string]bool{}
		}
		hosts[f.Rule][f.Hostname] = true
	}
	out := make([]Summary, 0, len(hosts))
	for rule, hs := range hosts {
		out = append(out, Summary{Rule: rule, Hosts: len(hs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hosts != out[j].Hosts {
			return out[i].Hosts > out[j].Hosts
		}
		if out[i].Rule.Severity() != out[j].Rule.Severity() {
			return out[i].Rule.Severity() > out[j].Rule.Severity()
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// ByCountry groups findings by country for the registrar reports.
func ByCountry(findings []Finding, countryOf func(string) string) map[string][]Finding {
	out := map[string][]Finding{}
	for _, f := range findings {
		cc := countryOf(f.Hostname)
		if cc == "" {
			continue
		}
		out[cc] = append(out[cc], f)
	}
	return out
}

// Render formats a summary as aligned text.
func Render(summaries []Summary) string {
	out := "Section 8: Recommendations checklist\n====================================\n"
	for _, s := range summaries {
		sev := map[int]string{3: "critical", 2: "important", 1: "advisory"}[s.Rule.Severity()]
		out += fmt.Sprintf("%-30s %-9s %6d hosts\n", s.Rule.String(), sev, s.Hosts)
	}
	return out
}
