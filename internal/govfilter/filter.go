// Package govfilter implements the conservative government hostname filter
// from §4.1.1 of the paper. A hostname is accepted only when it ends in a
// known government label followed by a valid country code (e.g.
// environment.gov.au, stats.data.gouv.fr, www.pwebapps.ezv.admin.ch), or in
// one of the United States' dedicated TLDs (.gov, .mil, .fed.us). The filter
// trades recall for precision — governments using .com/.org/.net, or a
// country's plain ccTLD, are missed (§4.2.3).
package govfilter

import (
	"strings"

	"repro/internal/geo"
)

// Filter classifies hostnames as government or non-government.
type Filter struct {
	// suffix -> ISO country code
	suffixes map[string]string
}

// New builds a Filter covering every country in the geo database.
func New() *Filter {
	f := &Filter{suffixes: make(map[string]string)}
	for _, c := range geo.All() {
		for _, s := range c.GovSuffixes() {
			f.suffixes[s] = c.Code
		}
	}
	return f
}

// Match reports whether hostname is a government hostname, and if so,
// which country it belongs to.
func (f *Filter) Match(hostname string) (country string, ok bool) {
	h := normalize(hostname)
	if h == "" {
		return "", false
	}
	labels := strings.Split(h, ".")
	if len(labels) < 2 {
		return "", false
	}
	// Try the longest match first: three trailing labels (e.g. gov.co.uk
	// style or fed.us), then two (gov.au), then one (the US gov/mil TLDs).
	for take := 3; take >= 1; take-- {
		if take > len(labels) {
			continue
		}
		suffix := strings.Join(labels[len(labels)-take:], ".")
		if cc, ok := f.suffixes[suffix]; ok {
			// A bare suffix like "gov.au" is the registry itself, not a
			// government website; require at least one label in front.
			if len(labels) == take {
				return "", false
			}
			return cc, true
		}
	}
	return "", false
}

// IsGov reports whether hostname matches the government filter.
func (f *Filter) IsGov(hostname string) bool {
	_, ok := f.Match(hostname)
	return ok
}

// HasValidCCTLD reports whether the hostname ends in a country-code TLD
// known to the geo database. The crawler uses this to decide which links to
// follow (§4.2.2).
func HasValidCCTLD(hostname string) bool {
	h := normalize(hostname)
	i := strings.LastIndexByte(h, '.')
	if i < 0 || i == len(h)-1 {
		return false
	}
	tld := h[i+1:]
	if len(tld) != 2 {
		// The US .gov / .mil / generic TLDs are handled separately.
		return tld == "gov" || tld == "mil"
	}
	_, ok := geo.ByCode(tld)
	return ok
}

func normalize(hostname string) string {
	h := strings.ToLower(strings.TrimSpace(hostname))
	h = strings.TrimPrefix(h, "http://")
	h = strings.TrimPrefix(h, "https://")
	if i := strings.IndexByte(h, '/'); i >= 0 {
		h = h[:i]
	}
	if i := strings.IndexByte(h, ':'); i >= 0 {
		h = h[:i]
	}
	return strings.TrimSuffix(h, ".")
}
