package geo

import (
	"strings"
	"testing"
)

func TestByCodeKnown(t *testing.T) {
	us, ok := ByCode("us")
	if !ok {
		t.Fatal("ByCode(us) not found")
	}
	if us.Name != "United States" {
		t.Errorf("us name = %q", us.Name)
	}
	if len(us.GovSuffixes()) < 3 {
		t.Errorf("us gov suffixes = %v, want gov/mil/fed.us", us.GovSuffixes())
	}
}

func TestByCodeCaseInsensitive(t *testing.T) {
	a, okA := ByCode("KR")
	b, okB := ByCode("kr")
	if !okA || !okB || a.Name != b.Name {
		t.Fatalf("case-insensitive lookup failed: %v %v", okA, okB)
	}
}

func TestByCodeUnknown(t *testing.T) {
	if _, ok := ByCode("zz"); ok {
		t.Fatal("ByCode(zz) should not exist")
	}
}

func TestMustByCodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByCode(zz) did not panic")
		}
	}()
	MustByCode("zz")
}

func TestGovSuffixConventions(t *testing.T) {
	cases := map[string]string{
		"uk": "gov.uk",
		"fr": "gouv.fr",
		"mx": "gob.mx",
		"kr": "go.kr",
		"nz": "govt.nz",
		"ch": "admin.ch",
		"uy": "gub.uy",
		"ad": "govern.ad",
	}
	for code, want := range cases {
		c := MustByCode(code)
		got := c.GovSuffixes()
		if len(got) == 0 || got[0] != want {
			t.Errorf("%s suffixes = %v, want first %q", code, got, want)
		}
	}
}

func TestNoConventionCountries(t *testing.T) {
	// Germany, Greenland, Gabon, Denmark, Netherlands do not use a standard
	// gov extension per §4.2.3 — they are whitelist-only.
	for _, code := range []string{"de", "gl", "ga", "dk", "nl"} {
		c := MustByCode(code)
		if c.Convention != ConvNone {
			t.Errorf("%s convention = %q, want none", code, c.Convention)
		}
	}
}

func TestAllSortedAndUnique(t *testing.T) {
	all := All()
	if len(all) < 180 {
		t.Fatalf("database has %d entries, want >= 180", len(all))
	}
	seen := map[string]bool{}
	prev := ""
	for _, c := range all {
		if c.Code <= prev && prev != "" {
			t.Errorf("All() not sorted: %q after %q", c.Code, prev)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %q", c.Code)
		}
		seen[c.Code] = true
		prev = c.Code
	}
}

func TestCountriesExcludeTerritories(t *testing.T) {
	territories := 0
	for _, c := range All() {
		if c.Territory {
			territories++
		}
	}
	for _, c := range Territories() {
		if !c.Territory {
			t.Errorf("Territories() contains country %q", c.Code)
		}
	}
	if len(Territories()) != territories {
		t.Errorf("Territories() = %d, All() has %d territories", len(Territories()), territories)
	}
	if len(Territories()) < 20 {
		t.Errorf("Territories() = %d, want >= 20", len(Territories()))
	}
}

func TestPopulationRank(t *testing.T) {
	cn, ok := PopulationRank("cn")
	if !ok || cn != 1 {
		t.Errorf("China population rank = %d, want 1", cn)
	}
	in, _ := PopulationRank("in")
	if in != 2 {
		t.Errorf("India population rank = %d, want 2", in)
	}
	va, ok := PopulationRank("va")
	if !ok || va < 200 {
		t.Errorf("Vatican population rank = %d, want near the bottom", va)
	}
}

func TestByPopulationOrdering(t *testing.T) {
	all := All()
	ordered := make([]Country, len(all))
	for _, c := range all {
		rank, ok := PopulationRank(c.Code)
		if !ok || rank < 1 || rank > len(ordered) || ordered[rank-1].Code != "" {
			t.Fatalf("PopulationRank(%s) = %d,%v: not a distinct rank in 1..%d", c.Code, rank, ok, len(ordered))
		}
		ordered[rank-1] = c
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Population > ordered[i-1].Population {
			t.Fatalf("population rank out of order at %d: %s > %s",
				i+1, ordered[i].Code, ordered[i-1].Code)
		}
	}
}

func TestEveryCountryHasSaneFields(t *testing.T) {
	for _, c := range All() {
		if c.Name == "" || len(c.Code) != 2 {
			t.Errorf("bad identity: %+v", c)
		}
		if c.Population <= 0 {
			t.Errorf("%s population = %d", c.Code, c.Population)
		}
		if c.InternetPct < 0 || c.InternetPct > 100 {
			t.Errorf("%s internet pct = %f", c.Code, c.InternetPct)
		}
		if c.Region == "" {
			t.Errorf("%s missing region", c.Code)
		}
		for _, s := range c.GovSuffixes() {
			if strings.HasPrefix(s, ".") || strings.HasSuffix(s, ".") {
				t.Errorf("%s suffix %q has stray dot", c.Code, s)
			}
		}
	}
}

func TestCaseStudyCountriesMatchPaper(t *testing.T) {
	us := MustByCode("us")
	kr := MustByCode("kr")
	if us.HDIRank != 15 || kr.HDIRank != 22 {
		t.Errorf("HDI ranks: us=%d kr=%d, want 15 and 22 (per §6)", us.HDIRank, kr.HDIRank)
	}
	if us.InternetPct != 90 || kr.InternetPct != 96 {
		t.Errorf("internet adoption: us=%v kr=%v, want 90 and 96", us.InternetPct, kr.InternetPct)
	}
}
