package world

import (
	"math/rand"
	"strconv"

	"repro/internal/geo"
)

// Word lists for synthesizing plausible government hostnames. Combined with
// per-country government suffixes they produce names like
// "health.gov.bd", "www.tax.gouv.sn" or "immigration.moj.go.kr".
var (
	agencyWords = []string{
		"health", "tax", "finance", "treasury", "immigration", "customs",
		"justice", "interior", "education", "agriculture", "transport",
		"energy", "labor", "commerce", "defense", "foreign", "environment",
		"tourism", "culture", "sports", "science", "planning", "housing",
		"water", "mines", "fisheries", "forestry", "statistics", "census",
		"elections", "parliament", "senate", "president", "pm", "cabinet",
		"police", "courts", "prisons", "lands", "survey", "registry",
		"pensions", "social", "welfare", "youth", "women", "veterans",
		"ports", "aviation", "rail", "roads", "post", "telecom", "ict",
		"media", "archives", "library", "museum", "weather", "met",
		"geology", "standards", "procurement", "budget", "audit", "revenue",
		"trade", "industry", "investment", "sme", "export", "bank",
	}
	orgWords = []string{
		"ministry", "dept", "office", "bureau", "agency", "authority",
		"commission", "council", "board", "service", "directorate",
		"secretariat", "institute", "center", "fund", "corp",
	}
	localWords = []string{
		"city", "county", "district", "province", "region", "municipal",
		"prefecture", "state", "town", "village", "canton", "borough",
	}
	cityWords = []string{
		"north", "south", "east", "west", "central", "upper", "lower",
		"new", "old", "port", "lake", "river", "hill", "bay", "cape",
		"grand", "little", "mount", "fort", "saint",
	}
	citySuffixes = []string{
		"ville", "ton", "burg", "field", "ford", "haven", "dale",
		"wood", "land", "stad", "pur", "abad", "nagar", "gang",
	}
)

// nameGen synthesizes unique hostnames under a country's gov suffixes.
type nameGen struct {
	country  geo.Country
	r        *rand.Rand
	used     map[string]bool
	counter  int
	suffixes []string
}

func newNameGen(c geo.Country, r *rand.Rand) *nameGen {
	return &nameGen{country: c, r: r, used: make(map[string]bool), suffixes: c.GovSuffixes()}
}

// suffix picks one of the country's government suffixes, weighted toward
// the primary convention.
func (g *nameGen) suffix() string {
	suffixes := g.suffixes
	if len(suffixes) == 0 {
		// Countries without a government extension host under bare
		// ccTLD domains.
		return g.country.Code
	}
	if len(suffixes) == 1 || g.r.Float64() < 0.7 {
		return suffixes[0]
	}
	return suffixes[1+g.r.Intn(len(suffixes)-1)]
}

// next produces a fresh unique hostname.
func (g *nameGen) next() string {
	for attempt := 0; attempt < 40; attempt++ {
		h := g.candidate()
		if !g.used[h] {
			g.used[h] = true
			return h
		}
	}
	// Exhausted the combinatorial space; fall back to a numbered name.
	g.counter++
	h := "site" + strconv.Itoa(g.counter) + "." + g.suffix()
	g.used[h] = true
	return h
}

func (g *nameGen) candidate() string {
	suffix := g.suffix()
	agency := agencyWords[g.r.Intn(len(agencyWords))]
	switch g.r.Intn(6) {
	case 0: // health.gov.xx
		return agency + "." + suffix
	case 1: // www.health.gov.xx
		return "www." + agency + "." + suffix
	case 2: // health.ministry.gov.xx
		org := orgWords[g.r.Intn(len(orgWords))]
		return agency + "." + org + "." + suffix
	case 3: // northville.gov.xx (local government)
		return cityWords[g.r.Intn(len(cityWords))] +
			citySuffixes[g.r.Intn(len(citySuffixes))] + "." + suffix
	case 4: // city.northton.gov.xx
		return localWords[g.r.Intn(len(localWords))] + "." +
			cityWords[g.r.Intn(len(cityWords))] + citySuffixes[g.r.Intn(len(citySuffixes))] + "." + suffix
	default: // portal5.gov.xx style service hosts
		return agency + strconv.Itoa(1+g.r.Intn(20)) + "." + suffix
	}
}

// parentDomain returns the hostname with its first label removed, or the
// hostname itself when there is nothing above the registrable suffix.
func parentDomain(host string) string {
	for i := 0; i < len(host); i++ {
		if host[i] == '.' {
			rest := host[i+1:]
			// Keep at least two labels (the gov suffix + cc).
			dots := 0
			for j := 0; j < len(rest); j++ {
				if rest[j] == '.' {
					dots++
				}
			}
			if dots >= 1 {
				return rest
			}
			return host
		}
	}
	return host
}
