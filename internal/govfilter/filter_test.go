package govfilter

import (
	"testing"
)

func TestMatchPaperExamples(t *testing.T) {
	f := New()
	// The four example hostnames given verbatim in §4.1.1.
	cases := map[string]string{
		"environment.gov.au":        "au",
		"geoportal.capmas.gov.eg":   "eg",
		"stats.data.gouv.fr":        "fr",
		"www.pwebapps.ezv.admin.ch": "ch",
	}
	for host, wantCC := range cases {
		cc, ok := f.Match(host)
		if !ok || cc != wantCC {
			t.Errorf("Match(%q) = %q,%v; want %q,true", host, cc, ok, wantCC)
		}
	}
}

func TestMatchUSSpecialTLDs(t *testing.T) {
	f := New()
	for _, host := range []string{"nih.gov", "www.whitehouse.gov", "af.mil", "usda.fed.us", "ca.gov.us"} {
		if cc, ok := f.Match(host); !ok || cc != "us" {
			t.Errorf("Match(%q) = %q,%v; want us,true", host, cc, ok)
		}
	}
}

func TestMatchRejectsNonGov(t *testing.T) {
	f := New()
	for _, host := range []string{
		"www.example.com",
		"google.co.uk",
		"blog.example.org",
		"gov.example.com", // gov as a left label, not a suffix
		"notgov.us",
		"mygov.io",
	} {
		if f.IsGov(host) {
			t.Errorf("IsGov(%q) = true, want false", host)
		}
	}
}

func TestMatchRejectsBareSuffix(t *testing.T) {
	f := New()
	// The registry domain itself is not a government website.
	for _, host := range []string{"gov.au", "gouv.fr", "go.kr"} {
		if f.IsGov(host) {
			t.Errorf("IsGov(%q) = true for bare registry suffix", host)
		}
	}
}

func TestMatchSpoofLookalikes(t *testing.T) {
	f := New()
	// §7.3.2: etagov.sl is a phishing site posing as eta.gov.lk — the label
	// "etagov" is not the gov suffix, so it must not match.
	if f.IsGov("etagov.sl") {
		t.Error("IsGov(etagov.sl) = true; lookalike must be rejected")
	}
	if !f.IsGov("eta.gov.lk") {
		t.Error("IsGov(eta.gov.lk) = false; genuine host must match")
	}
	// abcgov.us style spoofs (§7.3.2) end in .us but not in gov.us.
	if f.IsGov("abcgov.us") {
		t.Error("IsGov(abcgov.us) = true; spoof must be rejected")
	}
}

func TestWhitelist(t *testing.T) {
	f := New()
	if f.IsGov("bundesregierung.de") {
		t.Fatal("German site should not match before whitelisting")
	}
	f.Whitelist("bundesregierung.de", "de")
	cc, ok := f.Match("bundesregierung.de")
	if !ok || cc != "de" {
		t.Errorf("whitelisted Match = %q,%v", cc, ok)
	}
	if f.WhitelistSize() != 1 {
		t.Errorf("WhitelistSize = %d", f.WhitelistSize())
	}
}

func TestNormalization(t *testing.T) {
	f := New()
	for _, raw := range []string{
		"HTTPS://Environment.GOV.AU/about",
		"http://environment.gov.au:8080/",
		"environment.gov.au.",
		"  environment.gov.au  ",
	} {
		if cc, ok := f.Match(raw); !ok || cc != "au" {
			t.Errorf("Match(%q) = %q,%v; want au,true", raw, cc, ok)
		}
	}
}

func TestHasValidCCTLD(t *testing.T) {
	cases := map[string]bool{
		"example.fr":     true,
		"site.gov.bd":    true,
		"nih.gov":        true,
		"army.mil":       true,
		"example.com":    false,
		"example.zz":     false,
		"noext":          false,
		"trailing.dot.":  false, // normalizes to valid uk? -> "trailing.dot" tld "dot" invalid
		"www.example.uk": true,
		"":               false,
	}
	for host, want := range cases {
		if got := HasValidCCTLD(host); got != want {
			t.Errorf("HasValidCCTLD(%q) = %v, want %v", host, got, want)
		}
	}
}

func TestMatchEmptyAndDegenerate(t *testing.T) {
	f := New()
	for _, host := range []string{"", ".", "..", "gov", "mil", "localhost"} {
		if f.IsGov(host) {
			t.Errorf("IsGov(%q) = true", host)
		}
	}
}
