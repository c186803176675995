// Package hstspreload models the HTTP Strict-Transport-Security preload
// list the paper recommends governments enroll in (§8.2) and that the US
// .gov registry mandated shortly after the disclosures (§7.2.2): a registry
// of preloaded suffixes, eligibility checks against scan results, and an
// impact simulation answering the policy question "which sites break if a
// whole government suffix is preloaded?".
package hstspreload

import (
	"sort"
	"strings"

	"repro/internal/resultset"
	"repro/internal/scanner"
)

// List is a set of preloaded hostnames and suffixes.
type List struct {
	entries map[string]bool
}

// NewList creates an empty preload list.
func NewList() *List {
	return &List{entries: make(map[string]bool)}
}

// Add preloads a hostname or registry suffix (e.g. "gov" preloads every
// .gov site, the 2020 DotGov policy).
func (l *List) Add(entry string) {
	l.entries[strings.ToLower(strings.TrimPrefix(entry, "."))] = true
}

// Covers reports whether the hostname falls under any preloaded entry
// (exact match or suffix, label-aligned).
func (l *List) Covers(hostname string) bool {
	h := strings.ToLower(hostname)
	if l.entries[h] {
		return true
	}
	for i := 0; i < len(h); i++ {
		if h[i] == '.' && l.entries[h[i+1:]] {
			return true
		}
	}
	return false
}

// Eligibility is the result of checking one host against the preload
// submission requirements (hstspreload.org's, simplified to what the scan
// observes): valid https, an http→https redirect, and an HSTS header.
type Eligibility struct {
	Eligible bool
	// Missing lists the unmet requirements.
	Missing []string
}

// CheckEligibility evaluates a scan result.
func CheckEligibility(r *scanner.Result) Eligibility {
	var e Eligibility
	if !r.ValidHTTPS() {
		e.Missing = append(e.Missing, "valid https")
	}
	if r.ServesHTTP && !r.RedirectsToHTTPS {
		e.Missing = append(e.Missing, "http-to-https redirect")
	}
	if !r.HSTS {
		e.Missing = append(e.Missing, "strict-transport-security header")
	}
	e.Eligible = len(e.Missing) == 0
	return e
}

// Impact summarizes what preloading a suffix would do to a population: the
// DotGov question of §7.2.2.
type Impact struct {
	// Covered counts hosts under the suffix.
	Covered int
	// Ready counts covered hosts already serving valid https.
	Ready int
	// WouldBreak counts covered hosts a preload would cut off: browsers
	// would refuse their http-only or invalid-https content.
	WouldBreak int
	// Breakage lists the broken hostnames, sorted.
	Breakage []string
}

// ReadyPct is the share of covered hosts that survive preloading.
func (i Impact) ReadyPct() float64 {
	if i.Covered == 0 {
		return 0
	}
	return 100 * float64(i.Ready) / float64(i.Covered)
}

// SimulateImpact evaluates preloading one suffix over an indexed scan.
func SimulateImpact(suffix string, set *resultset.Set) Impact {
	l := NewList()
	l.Add(suffix)
	var imp Impact
	for i := 0; i < set.Len(); i++ {
		r := set.At(i)
		if !l.Covers(r.Hostname) {
			continue
		}
		imp.Covered++
		if r.ValidHTTPS() {
			imp.Ready++
		} else if r.Available {
			imp.WouldBreak++
			imp.Breakage = append(imp.Breakage, r.Hostname)
		}
	}
	sort.Strings(imp.Breakage)
	return imp
}

// EligibleHosts filters the set to hosts meeting the submission bar.
func EligibleHosts(set *resultset.Set) []string {
	var out []string
	for i := 0; i < set.Len(); i++ {
		if CheckEligibility(set.At(i)).Eligible {
			out = append(out, set.At(i).Hostname)
		}
	}
	sort.Strings(out)
	return out
}
