package certwatch

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cert"
	"repro/internal/ctlog"
)

func watcher() *Watcher {
	return NewWatcher([]string{
		"eta.gov.lk",
		"abc.gov",
		"treasury.gov",
		"portal.gov.bd",
		"impots.gouv.fr",
	})
}

func TestPaperCaseEtagovSL(t *testing.T) {
	// §7.3.2: etagov.sl posing as eta.gov.lk.
	w := watcher()
	matches := w.Check("etagov.sl")
	if len(matches) == 0 {
		t.Fatal("etagov.sl not flagged")
	}
	if matches[0].Rule != CCTLDConfusion || matches[0].Target != "eta.gov.lk" {
		t.Errorf("match = %+v", matches[0])
	}
}

func TestPaperCaseAbcgovUS(t *testing.T) {
	// §7.3.2: 85 unique hostnames of the form abcgov.us.
	w := watcher()
	matches := w.Check("abcgov.us")
	found := false
	for _, m := range matches {
		if m.Rule == GovKeywordSquat && m.Target == "abc.gov" {
			found = true
		}
	}
	if !found {
		t.Fatalf("abcgov.us not flagged as keyword squat: %v", matches)
	}
}

func TestGenuineHostNotFlagged(t *testing.T) {
	w := watcher()
	for _, genuine := range []string{"eta.gov.lk", "treasury.gov", "impots.gouv.fr"} {
		if got := w.Check(genuine); len(got) != 0 {
			t.Errorf("genuine host %q flagged: %v", genuine, got)
		}
	}
}

func TestUnrelatedHostNotFlagged(t *testing.T) {
	w := watcher()
	for _, benign := range []string{
		"example.com", "news.bbc.co.uk", "completely-different.sl", "gov.uk",
	} {
		if got := w.Check(benign); len(got) != 0 {
			t.Errorf("benign host %q flagged: %v", benign, got)
		}
	}
}

func TestEditDistanceTyposquat(t *testing.T) {
	w := watcher()
	matches := w.Check("treasurry.gov") // one inserted letter
	found := false
	for _, m := range matches {
		if m.Rule == EditDistance && m.Target == "treasury.gov" {
			found = true
		}
	}
	if !found {
		t.Fatalf("typosquat not flagged: %v", matches)
	}
}

func TestGouvKeyword(t *testing.T) {
	w := watcher()
	matches := w.Check("impotsgov.fr")
	// The collapsed form "impotsgouv" differs, but edit-distance or squat
	// heuristics may fire; what must not happen is a panic or a miss of
	// the exact collapse:
	m2 := w.Check("impotsgouv.sn") // collapsed name under another ccTLD
	if len(m2) == 0 {
		t.Errorf("impotsgouv.sn (cc confusion of impots.gouv.fr) not flagged")
	}
	_ = matches
}

func TestScanLog(t *testing.T) {
	w := watcher()
	r := rand.New(rand.NewSource(1))
	log := ctlog.NewSized("monitor", 0)
	at := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)

	add := func(host string) {
		key := cert.NewKey(r, cert.KeyRSA, 2048)
		c := &cert.Certificate{
			Subject:   cert.Name{CommonName: host},
			Issuer:    cert.Name{CommonName: "Free CA"},
			DNSNames:  []string{host},
			NotBefore: at, NotAfter: at.AddDate(0, 3, 0),
			PublicKey: key,
		}
		c.Sign(key.ID)
		log.Append(c, at)
	}
	add("etagov.sl")      // phishing
	add("legit.site.com") // benign
	add("eta.gov.lk")     // the genuine host renewing
	add("treasurygov.us") // keyword squat

	matches := w.ScanLog(log)
	if len(matches) < 2 {
		t.Fatalf("matches = %v", matches)
	}
	seen := map[string]bool{}
	for _, m := range matches {
		seen[m.Candidate] = true
	}
	if !seen["etagov.sl"] || !seen["treasurygov.us"] {
		t.Errorf("expected candidates missing: %v", matches)
	}
	if seen["eta.gov.lk"] || seen["legit.site.com"] {
		t.Errorf("benign entries flagged: %v", matches)
	}
}

func TestLevenshteinAtMost1(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"abc", "abc", false}, // identical: handled elsewhere
		{"abc", "abd", true},  // substitution
		{"abc", "abcd", true}, // insertion
		{"abcd", "abc", true}, // deletion
		{"abc", "abde", false},
		{"abc", "xyz", false},
		{"", "a", true},
		{"", "ab", false},
	}
	for _, tc := range cases {
		if got := levenshteinAtMost1(tc.a, tc.b); got != tc.want {
			t.Errorf("lev1(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPropertyLev1Symmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		return levenshteinAtMost1(a, b) == levenshteinAtMost1(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySingleEditAlwaysDetected(t *testing.T) {
	f := func(s string, pos uint8, c byte) bool {
		if len(s) == 0 || len(s) > 30 {
			return true
		}
		p := int(pos) % len(s)
		if s[p] == c {
			return true
		}
		b := []byte(s)
		b[p] = c // single-byte substitution
		return levenshteinAtMost1(s, string(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDegenerateInputs(t *testing.T) {
	w := watcher()
	for _, s := range []string{"", ".", "..", "x", "gov", "sl"} {
		w.Check(s) // must not panic
	}
}

func TestMatchEntry(t *testing.T) {
	w := watcher()
	r := rand.New(rand.NewSource(2))
	at := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)

	entry := func(names ...string) ctlog.Entry {
		key := cert.NewKey(r, cert.KeyRSA, 2048)
		c := &cert.Certificate{
			Subject:   cert.Name{CommonName: names[0]},
			Issuer:    cert.Name{CommonName: "Free CA"},
			DNSNames:  names,
			NotBefore: at, NotAfter: at.AddDate(0, 3, 0),
			PublicKey: key,
		}
		c.Sign(key.ID)
		return ctlog.Entry{Cert: c, Timestamp: at}
	}

	// A lookalike SAN is flagged (etagov.sl trips both the ccTLD and the
	// keyword-squat rules), wildcard form included.
	got := w.MatchEntry(entry("etagov.sl"))
	if len(got) == 0 || got[0].Rule != CCTLDConfusion || got[0].Target != "eta.gov.lk" {
		t.Fatalf("MatchEntry(etagov.sl) = %v", got)
	}
	if got := w.MatchEntry(entry("*.etagov.sl")); len(got) != 0 {
		// *.etagov.sl strips to etagov.sl's parent-less base; the base name
		// itself still matches.
		t.Logf("wildcard base matches: %v", got)
	}

	// Duplicate SANs (name + wildcard of it) are screened once.
	got = w.MatchEntry(entry("treasurygov.us", "*.treasurygov.us"))
	if len(got) != 1 || got[0].Rule != GovKeywordSquat {
		t.Fatalf("deduped MatchEntry = %v", got)
	}

	// Benign and genuine certificates produce no matches.
	if got := w.MatchEntry(entry("eta.gov.lk")); len(got) != 0 {
		t.Fatalf("genuine renewal flagged: %v", got)
	}
	if got := w.MatchEntry(entry("legit.site.com", "www.legit.site.com")); len(got) != 0 {
		t.Fatalf("benign entry flagged: %v", got)
	}
}

func TestMatchEntryAgreesWithScanLog(t *testing.T) {
	w := watcher()
	r := rand.New(rand.NewSource(3))
	log := ctlog.NewSized("tail", 0)
	at := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	hosts := []string{
		"etagov.sl", "legit.site.com", "eta.gov.lk",
		"treasurygov.us", "treasurry.gov", "portalgov.bd",
	}
	for _, h := range hosts {
		key := cert.NewKey(r, cert.KeyRSA, 2048)
		c := &cert.Certificate{
			Subject:   cert.Name{CommonName: h},
			Issuer:    cert.Name{CommonName: "Free CA"},
			DNSNames:  []string{h},
			NotBefore: at, NotAfter: at.AddDate(0, 3, 0),
			PublicKey: key,
		}
		c.Sign(key.ID)
		log.Append(c, at)
	}

	// Tailing the log through MatchEntry and sorting must reproduce
	// ScanLog exactly.
	var tailed []Match
	entries, _ := log.TailFrom(0)
	for _, e := range entries {
		tailed = append(tailed, w.MatchEntry(e)...)
	}
	SortMatches(tailed)

	want := w.ScanLog(log)
	if len(tailed) != len(want) {
		t.Fatalf("tailed %d matches, ScanLog %d: %v vs %v", len(tailed), len(want), tailed, want)
	}
	for i := range want {
		if tailed[i] != want[i] {
			t.Fatalf("match %d = %+v, want %+v", i, tailed[i], want[i])
		}
	}
}
