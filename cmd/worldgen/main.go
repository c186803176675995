// Command worldgen builds the synthetic government-web world and prints a
// summary of its populations — a quick way to inspect what the scanners
// will be measuring.
//
// Usage:
//
//	worldgen [-seed 42] [-scale 1.0]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale (1.0 = paper scale)")
	topCountries := flag.Int("top", 15, "countries to list")
	flag.Parse()

	w, err := world.Build(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worldgen:", err)
		os.Exit(1)
	}

	fmt.Printf("world seed=%d scale=%.3f\n\n", *seed, *scale)
	fmt.Printf("worldwide government hostnames: %d\n", len(w.GovHosts))
	fmt.Printf("unreachable hostnames:          %d\n", len(w.UnreachableHosts))
	fmt.Printf("seed list:                      %d\n", len(w.SeedHosts))
	fmt.Printf("countries represented:          %d\n", len(w.ByCountry))
	fmt.Printf("GSA datasets:                   %d (union %d hosts)\n",
		len(w.USA.Datasets), len(w.USA.AllHosts()))
	fmt.Printf("ROK Government24 hosts:         %d\n", len(w.ROK.Hosts))
	fmt.Printf("top-million list size:          %d (gov in Tranco: %d)\n",
		w.TopLists.Max, len(w.TopLists.TrancoGov))

	type cc struct {
		code string
		n    int
	}
	var counts []cc
	for code, hosts := range w.ByCountry {
		counts = append(counts, cc{code, len(hosts)})
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].n != counts[j].n {
			return counts[i].n > counts[j].n
		}
		return counts[i].code < counts[j].code
	})
	fmt.Printf("\nlargest country populations:\n")
	for i, c := range counts {
		if i >= *topCountries {
			break
		}
		fmt.Printf("  %-3s %d\n", c.code, c.n)
	}
}
