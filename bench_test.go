// Benchmark harness: one benchmark per table and figure of the paper (see
// the experiment index in DESIGN.md), plus ablation benches for the design
// choices the study calls out (trust-store restrictiveness, retry budget,
// crawl depth, sampling strategy, scanner concurrency).
//
// The world is built once per scale and scan results are cached inside the
// study, so each benchmark measures the cost of regenerating its artifact
// from a warm pipeline — the same split the paper has between the one-off
// crawl/scan and the analysis runs. Set GOVHTTPS_BENCH_SCALE to change the
// world size (default 0.05; 1.0 is the full 135k-hostname study).
package repro_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"io"
	"net/http"
	"net/http/httptest"
	"net/url"

	"repro/internal/acmefleet"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/ctlog"
	"repro/internal/notify"
	"repro/internal/observatory"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/world"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
)

func benchScale() float64 {
	if v := os.Getenv("GOVHTTPS_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 && f <= 1 {
			return f
		}
	}
	return 0.05
}

// study returns the shared, warm benchmark study.
func study(tb testing.TB) *core.Study {
	tb.Helper()
	benchOnce.Do(func() {
		benchStudy = core.MustNewStudy(world.Config{Seed: 42, Scale: benchScale()})
		// Warm every scan cache outside the timed region.
		ctx := context.Background()
		benchStudy.Worldwide(ctx)
		benchStudy.USAAll(ctx)
		benchStudy.ROK(ctx)
		for _, ds := range benchStudy.World.USA.Datasets {
			if _, err := benchStudy.USADataset(ctx, ds.Key); err != nil {
				panic(err)
			}
		}
	})
	return benchStudy
}

// benchExperiment runs one registry experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	s := study(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := core.RunExperiment(ctx, s, id)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// --- Tables ---

func BenchmarkTable1Overlap(b *testing.B)   { benchExperiment(b, "T1") }
func BenchmarkTable2Worldwide(b *testing.B) { benchExperiment(b, "T2") }

// --- Figures ---

func BenchmarkFigure1Choropleth(b *testing.B)        { benchExperiment(b, "F1") }
func BenchmarkFigure2Issuers(b *testing.B)           { benchExperiment(b, "F2") }
func BenchmarkFigure3Durations(b *testing.B)         { benchExperiment(b, "F3") }
func BenchmarkFigure4KeyAlgo(b *testing.B)           { benchExperiment(b, "F4") }
func BenchmarkFigure5Hosting(b *testing.B)           { benchExperiment(b, "F5") }
func BenchmarkFigure6TopMillionHosting(b *testing.B) { benchExperiment(b, "F6") }
func BenchmarkFigure7RankRegression(b *testing.B)    { benchExperiment(b, "F7") }
func BenchmarkFigure8USAIssuers(b *testing.B)        { benchExperiment(b, "F8") }
func BenchmarkFigure9USAKeyAlgo(b *testing.B)        { benchExperiment(b, "F9") }
func BenchmarkFigure10IssueDates(b *testing.B)       { benchExperiment(b, "F10") }
func BenchmarkFigure11ROKIssuers(b *testing.B)       { benchExperiment(b, "F11") }
func BenchmarkFigure12ROKKeyAlgo(b *testing.B)       { benchExperiment(b, "F12") }
func BenchmarkFigure13Disclosure(b *testing.B)       { benchExperiment(b, "F13") }

// --- Appendix tables ---

func BenchmarkTableA1GSADatasets(b *testing.B) { benchExperiment(b, "TA1") }
func BenchmarkTableA2GSAVulns(b *testing.B)    { benchExperiment(b, "TA2") }
func BenchmarkTableA3ROK(b *testing.B)         { benchExperiment(b, "TA3") }
func BenchmarkTableA4ROKVulns(b *testing.B)    { benchExperiment(b, "TA4") }

// --- Appendix figures ---

func BenchmarkFigureA1USAHostingPerDataset(b *testing.B) { benchExperiment(b, "FA1") }
func BenchmarkFigureA2USAEV(b *testing.B)                { benchExperiment(b, "FA2") }
func BenchmarkFigureA3ROKEV(b *testing.B)                { benchExperiment(b, "FA3") }

func BenchmarkFigureA4Crawler(b *testing.B) {
	// The crawl is the measured workload itself: a fresh 7-level BFS over
	// the world's link graph per iteration.
	s := study(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := crawler.New(&crawler.WebFetcher{Dialer: s.World.Net, Resolver: s.World.DNS})
		hosts, _ := c.Crawl(ctx, s.World.SeedHosts)
		if len(hosts) <= len(s.World.SeedHosts) {
			b.Fatal("crawl did not expand")
		}
	}
}

func BenchmarkFigureA5CrossGov(b *testing.B) { benchExperiment(b, "FA5") }
func BenchmarkFigureA6WorldEV(b *testing.B)  { benchExperiment(b, "FA6") }

// --- Section results ---

func BenchmarkSection533KeyReuse(b *testing.B) { benchExperiment(b, "S533") }
func BenchmarkSection534CAA(b *testing.B)      { benchExperiment(b, "S534") }

func BenchmarkSection722Effectiveness(b *testing.B) {
	// Remediation mutates the world, so this bench owns a private study
	// per iteration (the measured workload includes the follow-up scan).
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.MustNewStudy(world.Config{Seed: 42, Scale: benchScale() / 5})
		s.Worldwide(ctx)
		b.StartTimer()
		out, err := core.RunExperiment(ctx, s, "S722")
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// --- Pipeline benches ---

// BenchmarkScanWorldwide measures the raw scanning pipeline end to end:
// DNS, TCP, TLS handshake, chain retrieval, verification, classification.
func BenchmarkScanWorldwide(b *testing.B) {
	s := study(b)
	hosts := s.World.GovHosts
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := s.Scanner().ScanAll(ctx, hosts)
		if len(results) != len(hosts) {
			b.Fatal("short scan")
		}
	}
	b.ReportMetric(float64(len(hosts)), "hosts/op")
}

// BenchmarkScanSingleHost measures one full host probe.
func BenchmarkScanSingleHost(b *testing.B) {
	s := study(b)
	sc := s.Scanner()
	host := s.World.GovHosts[len(s.World.GovHosts)/2]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.Scan(ctx, host)
		if res.Hostname != host {
			b.Fatal("bad result")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationTrustStores compares scan outcomes under the three
// modeled trust stores (§4.3's conservative-store choice).
func BenchmarkAblationTrustStores(b *testing.B) {
	for _, storeName := range []string{"apple", "microsoft", "nss"} {
		b.Run(storeName, func(b *testing.B) {
			s := study(b)
			store := s.World.Stores[storeName]
			hosts := s.World.GovHosts[:min(2000, len(s.World.GovHosts))]
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := scanner.New(s.World.Net, s.World.DNS, s.World.Class,
					scanner.DefaultConfig(store, s.World.ScanTime))
				results := sc.ScanAll(ctx, hosts)
				tab := analysis.ComputeTable2(resultset.New(results, resultset.Options{}))
				if tab.Total == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkAblationRetries compares retry budgets (the paper retried 3x).
func BenchmarkAblationRetries(b *testing.B) {
	for _, retries := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("retries=%d", retries), func(b *testing.B) {
			s := study(b)
			cfg := scanner.DefaultConfig(s.Store(), s.World.ScanTime)
			cfg.Retries = retries
			hosts := s.World.GovHosts[:min(2000, len(s.World.GovHosts))]
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg)
				sc.ScanAll(ctx, hosts)
			}
		})
	}
}

// BenchmarkAblationCrawlDepth sweeps the crawl depth limit, showing the
// Figure A.4 saturation after level 5.
func BenchmarkAblationCrawlDepth(b *testing.B) {
	for _, depth := range []int{1, 3, 5, 7} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := study(b)
			ctx := context.Background()
			b.ResetTimer()
			var last int
			for i := 0; i < b.N; i++ {
				c := crawler.New(&crawler.WebFetcher{Dialer: s.World.Net, Resolver: s.World.DNS})
				c.MaxDepth = depth
				hosts, _ := c.Crawl(ctx, s.World.SeedHosts)
				last = len(hosts)
			}
			b.ReportMetric(float64(last), "hosts")
		})
	}
}

// BenchmarkAblationSampling times the §5.5 / §7.1.3 rank comparison, which
// draws the uniform, rank-matched and top non-government samples in one
// call; there is no arm that draws one sample alone.
func BenchmarkAblationSampling(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	results := s.Worldwide(ctx)
	b.Run("rank-matched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rc := analysis.ComputeRankComparison(s.World.TopLists, results, 42, 50)
			if rc.Matched.N == 0 {
				b.Fatal("empty matched sample")
			}
		}
	})
}

// BenchmarkAblationConcurrency sweeps the scanner's worker pool.
func BenchmarkAblationConcurrency(b *testing.B) {
	for _, conc := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("workers=%d", conc), func(b *testing.B) {
			s := study(b)
			cfg := scanner.DefaultConfig(s.Store(), s.World.ScanTime)
			cfg.Concurrency = conc
			hosts := s.World.GovHosts[:min(2000, len(s.World.GovHosts))]
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg)
				sc.ScanAll(ctx, hosts)
			}
		})
	}
}

// BenchmarkWorldBuild measures world generation itself.
func BenchmarkWorldBuild(b *testing.B) {
	cfg := world.Config{Seed: 42, Scale: benchScale() / 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := world.MustBuild(cfg)
		if len(w.GovHosts) == 0 {
			b.Fatal("empty world")
		}
	}
}

// BenchmarkDisclosureCampaign measures report building + the campaign.
func BenchmarkDisclosureCampaign(b *testing.B) {
	s := study(b)
	ctx := context.Background()
	results := s.Worldwide(ctx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports := notify.BuildReports(results, nil)
		c := notify.Campaign(reports, s.Rand("bench"))
		if c.EmailsSent == 0 {
			b.Fatal("no emails")
		}
	}
}

// --- Extension benches ---

func BenchmarkExtensionCTCoverage(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkExtensionLookalikes(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkExtensionRecommend(b *testing.B)  { benchExperiment(b, "E3") }

// BenchmarkCTInclusionProof measures Merkle proof generation+verification
// on the world's CT log.
func BenchmarkCTInclusionProof(b *testing.B) {
	s := study(b)
	log := s.World.CT
	size := log.Size()
	if size < 2 {
		b.Skip("log too small")
	}
	entries := log.Entries()
	root := log.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % size
		proof, err := log.InclusionProof(idx, size)
		if err != nil {
			b.Fatal(err)
		}
		leaf := ctlog.LeafHash(entries[idx].Cert.Encode())
		if !ctlog.VerifyInclusion(root, leaf, idx, size, proof) {
			b.Fatal("proof rejected")
		}
	}
}

// --- Report-suite bench ---

// BenchmarkReportSuite measures the full 36-experiment pipeline
// (govreport -all) end to end on a private study per iteration.
func BenchmarkReportSuite(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.MustNewStudy(world.Config{Seed: 42, Scale: benchScale() / 5})
		b.StartTimer()
		results, err := core.RunAllExperiments(ctx, s, core.SuiteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(core.Experiments()) {
			b.Fatal("short suite")
		}
	}
}

// BenchmarkJSONExport measures the zgrab-style JSON-lines serialization.
// TestGateJSONExportAllocs gates its allocations per export.
func BenchmarkJSONExport(b *testing.B) {
	s := study(b)
	results := s.Worldwide(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scanner.WriteJSONL(io.Discard, results.Results()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionHSTSPreload(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkExtensionACMEPolicy(b *testing.B)  { benchExperiment(b, "E6") }

// BenchmarkRenewalFleet measures the §8.1 renewal campaign end to end:
// order dispatch, http-01 validation round trips, issuance, zero-downtime
// rotation and snapshotting, on a chaos-injected private world per
// iteration (world build and scan stay outside the timed region). govbench
// `study` times the E7/E8 campaign as its acmefleet.campaign_s layer.
func BenchmarkRenewalFleet(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var renewals int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := chaosFleet(b, benchScale()/5)
		b.StartTimer()
		rep := f.Run(ctx)
		renewals = rep.Final().Renewals
		if renewals == 0 {
			b.Fatal("campaign renewed nothing")
		}
	}
	b.ReportMetric(float64(renewals), "renewals/op")
}

// chaosFleet builds a private seed-42 world at the given scale, scans it,
// injects the chaos profile over the enrolled hosts and returns
// the campaign ready to Run.
func chaosFleet(tb testing.TB, scale float64) *acmefleet.Fleet {
	tb.Helper()
	w := world.MustBuild(world.Config{Seed: 42, Scale: scale})
	cfg := scanner.DefaultConfig(w.Stores["apple"], w.ScanTime)
	cfg.Seed = 42
	cfg.Clock = w.Clock
	sc := scanner.New(w.Net, w.DNS, w.Class, cfg)
	set := resultset.New(sc.ScanAll(context.Background(), w.GovHosts), resultset.Options{CountryOf: w.CountryOf})
	enrolled := acmefleet.Enroll(set)
	hosts := make([]string, len(enrolled))
	for k, e := range enrolled {
		hosts[k] = e.Hostname
	}
	acmefleet.ApplyChaos(w, hosts, 42)
	return acmefleet.New(w, set, acmefleet.Config{Seed: 42})
}

// --- Incremental-delta benches ---
//
// The pair below measures the observatory's core trade: patching k changed
// rows into an indexed Set through ApplyDelta (cost proportional to the
// delta) versus the pre-refactor dataset patch path, a full rebuild over
// the corpus (cost proportional to the corpus regardless of k). Both
// sides consume the same pre-built base set and the same changed-row
// slice; TestGateApplyDelta gates the k=100 speedup.

// benchDeltaBase returns the warm base set plus k changed rows (evenly
// spaced across the corpus, HSTS flipped so the delta is non-trivial).
func benchDeltaBase(tb testing.TB, k int) (*resultset.Set, []scanner.Result) {
	tb.Helper()
	s := study(tb)
	raw := s.Worldwide(context.Background()).Results()
	if k >= len(raw) {
		tb.Skipf("k=%d >= corpus %d", k, len(raw))
	}
	base := resultset.New(raw, resultset.Options{CountryOf: s.CountryOf})
	stride := len(raw) / k
	changed := make([]scanner.Result, k)
	for i := 0; i < k; i++ {
		r := raw[i*stride]
		r.HSTS = !r.HSTS
		changed[i] = r
	}
	return base, changed
}

var benchDeltaKs = []int{100, 1000, 10000}

// rebuildPatched is the replaced patch path: walk the full corpus,
// substituting changed rows by hostname lookup, and index the patched
// slice from scratch.
func rebuildPatched(raw, changed []scanner.Result, opts resultset.Options) *resultset.Set {
	idx := make(map[string]int, len(changed))
	for j := range changed {
		idx[changed[j].Hostname] = j
	}
	patched := make([]scanner.Result, len(raw))
	for j := range raw {
		if ci, ok := idx[raw[j].Hostname]; ok {
			patched[j] = changed[ci]
		} else {
			patched[j] = raw[j]
		}
	}
	return resultset.New(patched, opts)
}

// BenchmarkApplyDelta times the incremental index patch: splice k changed
// rows into the base's shared-index chain without touching clean rows.
func BenchmarkApplyDelta(b *testing.B) {
	for _, k := range benchDeltaKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			base, changed := benchDeltaBase(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, err := base.ApplyDelta(changed)
				if err != nil {
					b.Fatal(err)
				}
				if next.Len() != base.Len() {
					b.Fatal("delta changed corpus size")
				}
			}
			b.ReportMetric(float64(base.Len()), "hosts/op")
		})
	}
}

// BenchmarkApplyDeltaRebuild is the replaced baseline: the full rebuild
// (rebuildPatched) dataset.Registry.patch ran before the ApplyDelta
// reroute.
func BenchmarkApplyDeltaRebuild(b *testing.B) {
	for _, k := range benchDeltaKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			base, changed := benchDeltaBase(b, k)
			raw := base.Results()
			opts := resultset.Options{CountryOf: study(b).CountryOf}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rebuildPatched(raw, changed, opts).Len() != base.Len() {
					b.Fatal("rebuild changed corpus size")
				}
			}
			b.ReportMetric(float64(base.Len()), "hosts/op")
		})
	}
}

// BenchmarkObservatory measures the continuous loop end to end: CT and
// change-event tails, priority-queue admission, incremental re-scan,
// ApplyDelta patching, and periodic snapshots over 20 virtual ticks on a
// churn-injected private world per iteration (world build and the
// baseline scan stay outside the timed region).
func BenchmarkObservatory(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var scanned int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := world.MustBuild(world.Config{Seed: 42, Scale: benchScale() / 5})
		sc := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
		raw := sc.ScanAll(ctx, w.GovHosts)
		base := resultset.New(raw, resultset.Options{CountryOf: w.CountryOf})
		o := observatory.New(w, base, observatory.Config{
			Seed:         42,
			Tick:         12 * time.Hour,
			Horizon:      10 * 24 * time.Hour,
			Workers:      16,
			ChurnPerTick: 10,
		})
		b.StartTimer()
		rep, err := o.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		scanned = rep.TotalScanned()
		if scanned == 0 {
			b.Fatal("observatory re-scanned nothing")
		}
	}
	b.ReportMetric(float64(scanned), "rescans/op")
}

// --- Serve benches ---
//
// The serve trio measures the query API under the deterministic load
// generator at three concurrency levels: the cached mix (steady-state
// hits out of the sharded response cache), the uncached mix (every
// request runs its aggregation), and the streaming-export mix (JSONL
// windows through the pooled 64 KiB buffers). Each loadgen run issues a
// fixed request count, so allocs/op divided by req/op is allocs per
// request — TestGateServeCachedAllocs gates the cached number.

const serveBenchRequests = 512

var (
	serveBenchOnce     sync.Once
	serveBenchCached   *serve.Server
	serveBenchUncached *serve.Server
	serveBenchQueryMix []string
	serveBenchExports  []string
)

// serveBench builds the two servers over the shared warm study and
// derives the request mixes from what the worldwide set contains.
func serveBench(tb testing.TB) {
	tb.Helper()
	s := study(tb)
	serveBenchOnce.Do(func() {
		set := s.Worldwide(context.Background())
		serveBenchCached = serve.New(s.Registry(), serve.Config{})
		serveBenchUncached = serve.New(s.Registry(), serve.Config{CacheDisabled: true})
		ccs := set.Countries()
		isss := set.Issuers()
		serveBenchQueryMix = []string{
			"/v1/table2",
			"/v1/countries",
			"/v1/issuers",
			"/v1/country?cc=" + ccs[0],
			"/v1/country?cc=" + ccs[len(ccs)/2],
			"/v1/issuer?cn=" + url.QueryEscape(isss[0]),
			"/v1/category?cat=" + url.QueryEscape(set.Categories()[0].String()),
			"/v1/host?name=" + url.QueryEscape(set.At(0).Hostname),
			"/v1/host?name=" + url.QueryEscape(set.At(set.Len()-1).Hostname),
		}
		serveBenchExports = []string{
			"/v1/export?limit=200",
			"/v1/export?offset=1000&limit=200",
			"/v1/export?offset=2000&limit=200",
		}
	})
}

// warmServe fills the cache (a no-op for the uncached server) and faults
// in the lazy host index — every path exactly once, not a random draw
// that could leave entries cold.
func warmServe(tb testing.TB, srv *serve.Server, mix []string) {
	tb.Helper()
	for _, path := range mix {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			tb.Fatalf("warmup %s: status %d", path, rec.Code)
		}
	}
}

// benchServe drives one mix at one client count and reports the loadgen
// latency percentiles alongside the standard counters.
func benchServe(b *testing.B, srv *serve.Server, mix []string, clients, requests int) {
	var last loadgen.Result
	warmServe(b, srv, mix) // outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = loadgen.Run(loadgen.Config{
			Handler: srv.Handler(), Clients: clients, Requests: requests,
			Seed: 42, Paths: mix,
		})
		if last.Errors != 0 {
			b.Fatalf("load run saw %d non-2xx responses", last.Errors)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(requests), "req/op")
	b.ReportMetric(float64(last.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(last.QPS, "qps")
}

// BenchmarkServeQuery is the cached steady state: after the first lap
// every aggregate is a shard-local LRU hit. TestGateServeCachedAllocs
// gates its allocs per request at clients=1.
func BenchmarkServeQuery(b *testing.B) {
	serveBench(b)
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, serveBenchCached, serveBenchQueryMix, clients, serveBenchRequests)
		})
	}
}

// BenchmarkServeQueryUncached runs the identical mix with the response
// cache disabled — the cost of the aggregations themselves, and the
// denominator of the cache's win.
func BenchmarkServeQueryUncached(b *testing.B) {
	serveBench(b)
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, serveBenchUncached, serveBenchQueryMix, clients, serveBenchRequests)
		})
	}
}

// BenchmarkServeExport streams 200-row JSONL windows through the pooled
// export path (uncached by design).
func BenchmarkServeExport(b *testing.B) {
	serveBench(b)
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, serveBenchCached, serveBenchExports, clients, serveBenchRequests/8)
		})
	}
}
