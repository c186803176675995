package crawler

import (
	"context"
	"errors"
	"testing"

	"repro/internal/govfilter"
	"repro/internal/world"
)

var testWorld = world.MustBuild(world.TestConfig())

func worldFetcher() *WebFetcher {
	return &WebFetcher{Dialer: testWorld.Net, Resolver: testWorld.DNS}
}

// mapFetcher serves a hand-built link graph.
type mapFetcher map[string][]string

func (m mapFetcher) FetchLinks(_ context.Context, h string) ([]string, error) {
	links, ok := m[h]
	if !ok {
		return nil, errors.New("unreachable")
	}
	return links, nil
}

func TestCrawlBFSDepths(t *testing.T) {
	graph := mapFetcher{
		"a.gov.br": {"b.gov.br", "x.example.com"},
		"b.gov.br": {"c.gov.br"},
		"c.gov.br": {"d.gov.br"},
		"d.gov.br": {"e.gov.br"},
	}
	c := New(graph)
	c.MaxDepth = 2
	hosts, stats := c.Crawl(context.Background(), []string{"a.gov.br"})
	// Depth 2 reaches c; d/e stay undiscovered. x.example.com is dropped
	// by the ccTLD filter.
	want := []string{"a.gov.br", "b.gov.br", "c.gov.br"}
	if len(hosts) != len(want) {
		t.Fatalf("hosts = %v, want %v", hosts, want)
	}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts = %v, want %v", hosts, want)
		}
	}
	if len(stats.Levels) != 3 {
		t.Fatalf("levels = %d", len(stats.Levels))
	}
	if stats.Levels[1].NewUnique != 1 || stats.Levels[2].NewUnique != 1 {
		t.Errorf("per-level new uniques = %+v", stats.Levels)
	}
}

func TestCrawlDedup(t *testing.T) {
	graph := mapFetcher{
		"a.gov.br": {"b.gov.br", "b.gov.br", "a.gov.br"},
		"b.gov.br": {"a.gov.br"},
	}
	c := New(graph)
	hosts, stats := c.Crawl(context.Background(), []string{"a.gov.br", "A.GOV.BR"})
	if len(hosts) != 2 {
		t.Fatalf("hosts = %v", hosts)
	}
	if stats.Levels[0].NewUnique != 1 {
		t.Errorf("seed dedup failed: %+v", stats.Levels[0])
	}
}

func TestCrawlKeepsUSTLDs(t *testing.T) {
	graph := mapFetcher{
		"portal.gov.br": {"nih.gov", "af.mil", "thing.zz", "example.com"},
		"nih.gov":       nil,
		"af.mil":        nil,
	}
	c := New(graph)
	hosts, _ := c.Crawl(context.Background(), []string{"portal.gov.br"})
	has := map[string]bool{}
	for _, h := range hosts {
		has[h] = true
	}
	if !has["nih.gov"] || !has["af.mil"] {
		t.Errorf("US TLD hosts dropped: %v", hosts)
	}
	if has["thing.zz"] || has["example.com"] {
		t.Errorf("invalid hosts kept: %v", hosts)
	}
}

func TestCrawlWorldFromSeeds(t *testing.T) {
	c := New(worldFetcher())
	hosts, stats := c.Crawl(context.Background(), testWorld.SeedHosts)

	// The crawl must expand the seed list substantially (the paper grew
	// 27,794 seeds into 134,812 government hostnames).
	if len(hosts) < len(testWorld.SeedHosts)*2 {
		t.Errorf("crawl grew %d seeds to only %d hosts", len(testWorld.SeedHosts), len(hosts))
	}
	// And recover the overwhelming majority of the worldwide population.
	gov := govfilter.New()
	found := map[string]bool{}
	for _, h := range hosts {
		if gov.IsGov(h) {
			found[h] = true
		}
	}
	missed := 0
	for _, h := range testWorld.GovHosts {
		if !found[h] && gov.IsGov(h) {
			missed++
		}
	}
	if frac := float64(missed) / float64(len(testWorld.GovHosts)); frac > 0.05 {
		t.Errorf("crawl missed %.1f%% of government hosts", frac*100)
	}
	// Growth declines after the middle levels (Figure A.4).
	if len(stats.Levels) < 6 {
		t.Fatalf("levels = %d", len(stats.Levels))
	}
	mid := stats.Levels[3].NewUnique
	last := stats.Levels[len(stats.Levels)-1].NewUnique
	if last >= mid {
		t.Errorf("discovery did not taper: level3=%d last=%d", mid, last)
	}
}

func TestCrawlRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(worldFetcher())
	hosts, _ := c.Crawl(ctx, testWorld.SeedHosts[:10])
	if len(hosts) > 10 {
		t.Errorf("cancelled crawl expanded to %d hosts", len(hosts))
	}
}

func TestWebFetcherFollowsUpgrade(t *testing.T) {
	// A BothRedirect site's links must be retrievable through the
	// redirect-to-https path.
	var target string
	for _, h := range testWorld.GovHosts {
		s := testWorld.Sites[h]
		if s.Serving == world.BothRedirect && s.Injected == world.ClassValid && len(s.Links) > 0 {
			target = h
			break
		}
	}
	if target == "" {
		t.Skip("no valid redirecting site with links")
	}
	links, err := worldFetcher().FetchLinks(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 {
		t.Error("no links retrieved through https upgrade")
	}
}

func TestWebFetcherUnreachable(t *testing.T) {
	if _, err := worldFetcher().FetchLinks(context.Background(), "nope.gov.zz"); err == nil {
		t.Error("fetch of unknown host succeeded")
	}
}
