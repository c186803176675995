package hosting

import (
	"net/netip"
	"testing"
)

func TestDefaultClassification(t *testing.T) {
	c := DefaultClassifier()
	cases := []struct {
		ip       string
		provider string
		kind     Kind
	}{
		{"52.10.20.30", "AWS", Cloud},
		{"3.1.2.3", "AWS", Cloud},
		{"13.64.0.1", "Azure", Cloud},
		{"40.100.1.1", "Azure", Cloud},
		{"34.64.0.9", "Google Cloud", Cloud},
		{"169.45.1.1", "IBM Cloud", Cloud},
		{"129.146.8.8", "Oracle Cloud", Cloud},
		{"15.97.0.1", "HP Enterprise", Cloud},
		{"104.17.5.5", "Cloudflare", CDN},
		{"172.65.1.1", "Cloudflare", CDN},
		{"190.14.22.3", "Private", Private},
		{"198.51.100.7", "Private", Private},
	}
	for _, tc := range cases {
		name, kind := c.Classify(netip.MustParseAddr(tc.ip))
		if name != tc.provider || kind != tc.kind {
			t.Errorf("Classify(%s) = %s/%v, want %s/%v", tc.ip, name, kind, tc.provider, tc.kind)
		}
	}
}

func TestProviderLookup(t *testing.T) {
	byName := map[string]*Provider{}
	for _, p := range DefaultClassifier().providers {
		byName[p.Name] = p
	}
	if p, ok := byName["Cloudflare"]; !ok || p.Kind != CDN {
		t.Fatalf("Cloudflare = %+v, %v", p, ok)
	}
	if _, ok := byName["Akamai"]; ok {
		t.Fatal("Akamai must be absent (publishes no IP range list, §5.4)")
	}
}

func TestKindString(t *testing.T) {
	if Cloud.String() != "Cloud" || CDN.String() != "CDN" || Private.String() != "Private" {
		t.Error("kind labels wrong")
	}
}

func TestPrefixesDisjoint(t *testing.T) {
	// The classifier's correctness relies on each provider owning a
	// disjoint block of the simulated address plan.
	c := DefaultClassifier()
	if len(c.providers) != 7 {
		t.Fatalf("providers = %d, want 7", len(c.providers))
	}
	var all []netip.Prefix
	for _, p := range c.providers {
		all = append(all, p.Prefixes...)
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				t.Errorf("prefixes %v and %v overlap", all[i], all[j])
			}
		}
	}
}
