// Command govcrawl runs the §4.2.2 dataset-expansion crawl: starting from
// the merged top-million seed list it follows page links with valid country
// codes for seven levels of depth, printing the Figure A.4 growth trace.
//
// Usage:
//
//	govcrawl [-seed 42] [-scale 1.0] [-depth 7]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/crawler"
	"repro/internal/govfilter"
	"repro/internal/report"
	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	depth := flag.Int("depth", 7, "maximum crawl depth")
	flag.Parse()

	w, err := world.Build(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "govcrawl:", err)
		os.Exit(1)
	}
	c := crawler.New(&crawler.WebFetcher{Dialer: w.Net, Resolver: w.DNS})
	c.MaxDepth = *depth

	hosts, stats := c.Crawl(context.Background(), w.SeedHosts)
	fmt.Print(report.Crawl(stats))

	gov := govfilter.New()
	govCount := 0
	for _, h := range hosts {
		if gov.IsGov(h) {
			govCount++
		}
	}
	fmt.Printf("\ncrawl grew %d seeds into %d unique hosts (%d government)\n",
		len(w.SeedHosts), len(hosts), govCount)
}
