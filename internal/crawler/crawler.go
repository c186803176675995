// Package crawler implements the dataset-expansion crawler of §4.2.2: a
// breadth-first walk starting from the seed hostnames, following page links
// whose hosts carry a valid country-code extension, for up to seven levels
// of depth. Per-level statistics reproduce Figure A.4's growth curve.
package crawler

import (
	"context"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"repro/internal/govfilter"
	"repro/internal/httpsim"
	"repro/internal/scanner"
	"repro/internal/tlssim"
)

// Fetcher retrieves the outbound link hosts of a page.
type Fetcher interface {
	FetchLinks(ctx context.Context, hostname string) ([]string, error)
}

// LevelStats summarizes one crawl level, matching Figure A.4's series.
type LevelStats struct {
	// Level is the BFS depth (0 = seed list itself).
	Level int
	// Visited is the number of hosts fetched at this level.
	Visited int
	// Discovered is the number of link hosts seen (pre-dedup).
	Discovered int
	// NewUnique is the number of previously unseen hosts with a valid
	// ccTLD added to the frontier.
	NewUnique int
	// NewGov is how many of those match the government filter.
	NewGov int
	// CumulativeUnique is the dataset size after this level.
	CumulativeUnique int
	// GrowthPct is the percentage increase over the previous level.
	GrowthPct float64
}

// Stats is a full crawl trace.
type Stats struct {
	Levels []LevelStats
}

// fetchConcurrency bounds parallel fetches per level.
const fetchConcurrency = 64

// Crawler walks the link graph. The frontier keeps hosts with a valid
// ccTLD (and the US gov/mil TLDs), as the paper's crawl did.
type Crawler struct {
	Fetch Fetcher
	// MaxDepth bounds the walk; the paper used 7.
	MaxDepth int
}

// New builds a crawler with the paper's settings.
func New(f Fetcher) *Crawler {
	return &Crawler{Fetch: f, MaxDepth: 7}
}

// Crawl walks from the seeds and returns every unique host retained
// (sorted), along with per-level statistics.
func (c *Crawler) Crawl(ctx context.Context, seeds []string) ([]string, Stats) {
	seen := make(map[string]bool)
	var frontier []string
	for _, s := range seeds {
		h := strings.ToLower(s)
		if !seen[h] {
			seen[h] = true
			frontier = append(frontier, h)
		}
	}
	stats := Stats{}
	gov := govfilter.New()
	prevTotal := len(frontier)

	stats.Levels = append(stats.Levels, LevelStats{
		Level:            0,
		NewUnique:        len(frontier),
		NewGov:           countGov(gov, frontier),
		CumulativeUnique: len(frontier),
	})

	for depth := 1; depth <= c.MaxDepth; depth++ {
		if len(frontier) == 0 || ctx.Err() != nil {
			break
		}
		links := c.fetchLevel(ctx, frontier)

		var next []string
		newGov := 0
		for _, h := range links {
			if seen[h] || !govfilter.HasValidCCTLD(h) {
				continue
			}
			seen[h] = true
			next = append(next, h)
			if gov.IsGov(h) {
				newGov++
			}
		}
		cum := prevTotal + len(next)
		growth := 0.0
		if prevTotal > 0 {
			growth = 100 * float64(len(next)) / float64(prevTotal)
		}
		stats.Levels = append(stats.Levels, LevelStats{
			Level:            depth,
			Visited:          len(frontier),
			Discovered:       len(links),
			NewUnique:        len(next),
			NewGov:           newGov,
			CumulativeUnique: cum,
			GrowthPct:        growth,
		})
		prevTotal = cum
		frontier = next
	}

	out := make([]string, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Strings(out)
	return out, stats
}

// fetchLevel fetches every frontier host concurrently and returns the
// observed link hosts (unfiltered, with duplicates).
func (c *Crawler) fetchLevel(ctx context.Context, frontier []string) []string {
	results := make([][]string, len(frontier))
	sem := make(chan struct{}, fetchConcurrency)
	var wg sync.WaitGroup
	for i, h := range frontier {
		sem <- struct{}{}
		// Re-check after the (possibly long) semaphore wait: a context
		// cancelled while we blocked must stop the level here rather than
		// keep issuing fetches as slots free up.
		if ctx.Err() != nil {
			<-sem
			break
		}
		wg.Add(1)
		go func(i int, h string) {
			defer wg.Done()
			defer func() { <-sem }()
			links, err := c.Fetch.FetchLinks(ctx, h)
			if err == nil {
				results[i] = links
			}
		}(i, h)
	}
	wg.Wait()
	var out []string
	for _, links := range results {
		out = append(out, links...)
	}
	return out
}

func countGov(f *govfilter.Filter, hosts []string) int {
	n := 0
	for _, h := range hosts {
		if f.IsGov(h) {
			n++
		}
	}
	return n
}

// WebFetcher fetches pages over the simulated network: plain http first,
// following an upgrade redirect to https when offered. Certificate validity
// is irrelevant to crawling (the crawler, like a browser user, clicks
// "accept the risk and continue").
type WebFetcher struct {
	Dialer   scanner.Dialer
	Resolver scanner.Resolver
}

// FetchLinks implements Fetcher.
func (f *WebFetcher) FetchLinks(ctx context.Context, hostname string) ([]string, error) {
	ip, err := scanner.FirstA(f.Resolver, hostname)
	if err != nil || !ip.IsValid() {
		return nil, err
	}

	body, redirected, err := f.getHTTP(ctx, ip, hostname)
	if err == nil && !redirected {
		return linkHosts(body), nil
	}
	// Either port 80 failed or it redirected to https.
	body, err = f.getHTTPS(ctx, ip, hostname)
	if err != nil {
		return nil, err
	}
	return linkHosts(body), nil
}

func (f *WebFetcher) getHTTP(ctx context.Context, ip netip.Addr, hostname string) (body []byte, redirected bool, err error) {
	conn, err := f.Dialer.Dial(ctx, ip80(ip))
	if err != nil {
		return nil, false, err
	}
	defer conn.Close()
	resp, err := httpsim.Get(conn, hostname, "/")
	if err != nil {
		return nil, false, err
	}
	if resp.IsRedirect() && strings.HasPrefix(resp.Location(), "https://") {
		return nil, true, nil
	}
	return resp.Body, false, nil
}

func (f *WebFetcher) getHTTPS(ctx context.Context, ip netip.Addr, hostname string) ([]byte, error) {
	conn, err := f.Dialer.Dial(ctx, ip443(ip))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	tc, err := tlssim.ClientHandshake(conn, tlssim.DefaultClientConfig(hostname))
	if err != nil {
		return nil, err
	}
	resp, err := httpsim.Get(tc, hostname, "/")
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

func linkHosts(body []byte) []string {
	var out []string
	for _, l := range httpsim.ExtractLinks(body) {
		if h := httpsim.HostOf(l); h != "" {
			out = append(out, h)
		}
	}
	return out
}

func ip80(ip netip.Addr) netip.AddrPort  { return netip.AddrPortFrom(ip, 80) }
func ip443(ip netip.Addr) netip.AddrPort { return netip.AddrPortFrom(ip, 443) }
