// Package hosting classifies host IP addresses into hosting categories the
// way the paper does (§5.4): using published CIDR prefix lists for the major
// cloud providers (AWS, Azure, Google Cloud, IBM, Oracle, HPE) and CDNs
// (Cloudflare), labelling everything else "privately hosted or unknown".
// Akamai publishes no official IP range list and is therefore absent,
// exactly as in the study.
package hosting

import "net/netip"

// Kind is the coarse hosting category used across Figures 5, 6 and A.1.
type Kind int

// Hosting categories.
const (
	// Private covers self-hosted and unidentifiable addresses.
	Private Kind = iota
	// Cloud covers the large public cloud providers.
	Cloud
	// CDN covers content delivery networks.
	CDN
)

// String returns the category label used in the figures.
func (k Kind) String() string {
	switch k {
	case Cloud:
		return "Cloud"
	case CDN:
		return "CDN"
	default:
		return "Private"
	}
}

// Provider is one hosting provider with its published prefixes.
type Provider struct {
	Name     string
	Kind     Kind
	Prefixes []netip.Prefix
}

// Contains reports whether the address falls in the provider's ranges.
func (p *Provider) Contains(addr netip.Addr) bool {
	for _, pfx := range p.Prefixes {
		if pfx.Contains(addr) {
			return true
		}
	}
	return false
}

// Classifier matches addresses against a set of providers.
type Classifier struct {
	providers []*Provider
}

// NewClassifier builds a classifier over the given providers, first match
// wins in the order supplied.
func NewClassifier(providers []*Provider) *Classifier {
	return &Classifier{providers: providers}
}

// DefaultClassifier covers the providers the paper sorts hostnames by. The
// prefixes are simulation address plans, one disjoint block per provider, so
// the world generator can mint provider-attributed addresses and the
// classifier can recover them — the same role the published CIDR lists play
// in the real study.
func DefaultClassifier() *Classifier {
	return NewClassifier([]*Provider{
		{Name: "AWS", Kind: Cloud, Prefixes: pfx("52.0.0.0/10", "54.64.0.0/11", "3.0.0.0/10")},
		{Name: "Azure", Kind: Cloud, Prefixes: pfx("13.64.0.0/11", "20.32.0.0/11", "40.64.0.0/10")},
		{Name: "Google Cloud", Kind: Cloud, Prefixes: pfx("34.64.0.0/10", "35.184.0.0/13")},
		{Name: "IBM Cloud", Kind: Cloud, Prefixes: pfx("169.44.0.0/14")},
		{Name: "Oracle Cloud", Kind: Cloud, Prefixes: pfx("129.146.0.0/15", "132.145.0.0/16")},
		{Name: "HP Enterprise", Kind: Cloud, Prefixes: pfx("15.96.0.0/11")},
		{Name: "Cloudflare", Kind: CDN, Prefixes: pfx("104.16.0.0/13", "172.64.0.0/13")},
	})
}

// Classify returns the provider name and kind for the address; unmatched
// addresses are ("Private", Private), the paper's "privately hosted or
// unknown" bucket.
func (c *Classifier) Classify(addr netip.Addr) (string, Kind) {
	for _, p := range c.providers {
		if p.Contains(addr) {
			return p.Name, p.Kind
		}
	}
	return "Private", Private
}

func pfx(cidrs ...string) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(cidrs))
	for _, c := range cidrs {
		out = append(out, netip.MustParsePrefix(c))
	}
	return out
}
