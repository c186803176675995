// Package geo provides the country database used throughout the study:
// ISO country codes, government domain conventions, population ranks, human
// development index scores and Internet penetration rates. The data drives
// both the synthetic world generation (how many sites a country has, what
// quality profile they follow) and the analysis (Figure 1 choropleth rows,
// Figure 13 population-rank bands).
package geo

import (
	"fmt"
	"sort"
	"strings"
)

// GovConvention identifies the second-level (or top-level) label a country
// uses for official government hostnames, per §4.1.1 of the paper.
type GovConvention string

// The government domain conventions observed in the paper.
const (
	ConvGov        GovConvention = "gov"        // most countries: .gov.cc
	ConvGouv       GovConvention = "gouv"       // francophone: .gouv.cc
	ConvGob        GovConvention = "gob"        // hispanophone: .gob.cc
	ConvGo         GovConvention = "go"         // Kenya, Indonesia, Japan, Korea, Thailand, Uganda
	ConvGub        GovConvention = "gub"        // Uruguay
	ConvGovern     GovConvention = "govern"     // Andorra
	ConvGovernment GovConvention = "government" // rare
	ConvGovt       GovConvention = "govt"       // New Zealand
	ConvAdmin      GovConvention = "admin"      // Switzerland
	ConvNone       GovConvention = ""           // no dedicated convention (plain ccTLD)
)

// Country describes one country or territory in the study.
type Country struct {
	// Name is the common English name.
	Name string
	// Code is the ISO 3166-1 alpha-2 code, which doubles as the ccTLD.
	Code string
	// Convention is the government second-level label, e.g. "gov" for
	// .gov.uk or "gouv" for .gouv.fr.
	Convention GovConvention
	// ExtraGovTLDs lists full government suffixes that do not follow the
	// convention+cc pattern (e.g. the US "gov", "mil", "fed.us").
	ExtraGovTLDs []string
	// Population is an approximate 2020 population.
	Population int64
	// HDIRank is the Human Development Index rank (1 = highest).
	HDIRank int
	// InternetPct is the share of the population online, 0..100.
	InternetPct float64
	// Territory marks dependent territories of other countries; these are
	// excluded from the disclosure campaign (the white bands in Fig 13).
	Territory bool
	// Region is a coarse geographic region label.
	Region string
}

// GovSuffixes returns every hostname suffix that identifies an official
// government site of the country, most specific first.
func (c Country) GovSuffixes() []string {
	out := make([]string, 0, 1+len(c.ExtraGovTLDs))
	if c.Convention != ConvNone {
		out = append(out, string(c.Convention)+"."+c.Code)
	}
	out = append(out, c.ExtraGovTLDs...)
	return out
}

// PopulationRank returns the 1-based rank of the country by population among
// all countries in the database (1 = most populous). Territories are ranked
// too; ties break by code.
func PopulationRank(code string) (int, bool) {
	ranks := populationRanks()
	r, ok := ranks[strings.ToLower(code)]
	return r, ok
}

// ByCode returns the country with the given ISO code.
func ByCode(code string) (Country, bool) {
	c, ok := index[strings.ToLower(code)]
	return c, ok
}

// MustByCode is ByCode for codes known to exist; it panics otherwise.
func MustByCode(code string) Country {
	c, ok := ByCode(code)
	if !ok {
		panic(fmt.Sprintf("geo: unknown country code %q", code))
	}
	return c
}

// All returns every country and territory in the database, sorted by code.
func All() []Country {
	out := make([]Country, len(countries))
	copy(out, countries)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Territories returns only dependent territories, sorted by code.
func Territories() []Country {
	var out []Country
	for _, c := range All() {
		if c.Territory {
			out = append(out, c)
		}
	}
	return out
}

var (
	index        map[string]Country
	popRanksOnce map[string]int
)

func init() {
	index = make(map[string]Country, len(countries))
	for _, c := range countries {
		if _, dup := index[c.Code]; dup {
			panic("geo: duplicate country code " + c.Code)
		}
		index[c.Code] = c
	}
}

func populationRanks() map[string]int {
	if popRanksOnce != nil {
		return popRanksOnce
	}
	ordered := make([]Country, len(countries))
	copy(ordered, countries)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Population != ordered[j].Population {
			return ordered[i].Population > ordered[j].Population
		}
		return ordered[i].Code < ordered[j].Code
	})
	ranks := make(map[string]int, len(ordered))
	for i, c := range ordered {
		ranks[c.Code] = i + 1
	}
	popRanksOnce = ranks
	return ranks
}
