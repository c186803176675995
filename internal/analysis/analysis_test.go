package analysis

import (
	"context"
	"testing"

	"repro/internal/govfilter"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

var (
	testWorld = world.MustBuild(world.TestConfig())
	scanCache *resultset.Set
)

func worldScan(t *testing.T) *resultset.Set {
	t.Helper()
	if scanCache == nil {
		s := scanner.New(testWorld.Net, testWorld.DNS, testWorld.Class,
			scanner.DefaultConfig(testWorld.Stores["apple"], testWorld.ScanTime))
		scanCache = resultset.New(s.ScanAll(context.Background(), testWorld.GovHosts), resultset.Options{CountryOf: countryOf})
	}
	return scanCache
}

func countryOf(h string) string { return testWorld.CountryOf(h) }

func TestTable2Shape(t *testing.T) {
	tab := ComputeTable2(worldScan(t))
	if tab.Total == 0 {
		t.Fatal("empty table")
	}
	httpsShare := tab.PctOfTotal(tab.HTTPS)
	if httpsShare < 30 || httpsShare > 50 {
		t.Errorf("https share = %.1f%%, want ~39%%", httpsShare)
	}
	validShare := tab.PctOfHTTPS(tab.Valid)
	if validShare < 60 || validShare > 82 {
		t.Errorf("valid share = %.1f%%, want ~71%%", validShare)
	}
	// Error ordering per Table 2.
	bc := tab.ByCategory
	if !(bc[scanner.CatHostnameMismatch] > bc[scanner.CatLocalIssuer]) {
		t.Errorf("mismatch (%d) !> local issuer (%d)",
			bc[scanner.CatHostnameMismatch], bc[scanner.CatLocalIssuer])
	}
	if !(bc[scanner.CatLocalIssuer] > bc[scanner.CatSelfSigned]) {
		t.Errorf("local issuer !> self-signed")
	}
	if !(bc[scanner.CatSelfSigned] > bc[scanner.CatExpired]) {
		t.Errorf("self-signed !> expired")
	}
	// Unsupported SSL protocol dominates the exceptions block (73.65%).
	if tab.Exceptions > 0 {
		share := tab.PctOfExceptions(bc[scanner.CatExcSSLProto])
		if share < 50 {
			t.Errorf("unsupported-proto share of exceptions = %.1f%%, want ~74%%", share)
		}
	}
	if tab.HTTPOnly+tab.HTTPS != tab.Total {
		t.Errorf("accounting broken: %d + %d != %d", tab.HTTPOnly, tab.HTTPS, tab.Total)
	}
	if tab.Valid+tab.Invalid != tab.HTTPS {
		t.Errorf("https accounting broken")
	}
}

func TestInvalidCategoriesSorted(t *testing.T) {
	tab := ComputeTable2(worldScan(t))
	cats := tab.InvalidCategoriesSorted()
	for i := 1; i < len(cats); i++ {
		if tab.ByCategory[cats[i-1]] < tab.ByCategory[cats[i]] {
			t.Fatal("categories not sorted by count")
		}
	}
}

func TestIssuerBreakdownLetsEncryptLeads(t *testing.T) {
	issuers := IssuerBreakdown(worldScan(t), testWorld.Stores["apple"])
	if len(issuers) < 10 {
		t.Fatalf("only %d issuers", len(issuers))
	}
	// §5.2: Let's Encrypt is the leading CA worldwide with ~80% validity.
	if issuers[0].Issuer != "Let's Encrypt Authority X3" {
		t.Errorf("top issuer = %q, want Let's Encrypt", issuers[0].Issuer)
	}
	le := issuers[0]
	if le.InvalidPct() > 40 {
		t.Errorf("Let's Encrypt invalidity = %.1f%%, want ~20%%", le.InvalidPct())
	}
	top := TopIssuers(issuers, 5)
	if len(top) != 5 {
		t.Errorf("TopIssuers = %d", len(top))
	}
}

func TestEVBreakdownAndStats(t *testing.T) {
	results := worldScan(t)
	store := testWorld.Stores["apple"]
	ev := ComputeEVStats(results, store)
	if ev.Hosts == 0 {
		t.Fatal("no EV hosts")
	}
	share := 100 * float64(ev.Hosts) / float64(ev.Analyzed)
	// §5.3: 4.24% EV hostnames.
	if share < 1 || share > 10 {
		t.Errorf("EV share = %.2f%%, want ~4%%", share)
	}
	evIssuers := EVIssuerBreakdown(results, store)
	if len(evIssuers) == 0 {
		t.Fatal("no EV issuers")
	}
	for _, s := range evIssuers {
		if s.EV != s.Total {
			t.Errorf("EV breakdown contains non-EV rows: %+v", s)
		}
	}
}

func TestWildcardStats(t *testing.T) {
	s := ComputeWildcardStats(worldScan(t))
	if s.Analyzed == 0 || s.Wildcard == 0 {
		t.Fatal("no wildcard data")
	}
	share := 100 * float64(s.Wildcard) / float64(s.Analyzed)
	// §5.3: 39.21% wildcard, 22.67% of them invalid.
	if share < 25 || share > 55 {
		t.Errorf("wildcard share = %.1f%%, want ~39%%", share)
	}
	invShare := 100 * float64(s.WildcardInvalid) / float64(s.Wildcard)
	if invShare < 10 || invShare > 45 {
		t.Errorf("wildcard invalid share = %.1f%%, want ~23%%", invShare)
	}
}

func TestKeyAlgoMatrix(t *testing.T) {
	m := ComputeKeyAlgoMatrix(worldScan(t))
	if len(m.ByHostKey) == 0 || len(m.BySigAlgo) == 0 || len(m.Combined) == 0 {
		t.Fatal("empty matrix")
	}
	// RSA-2048 dominates host keys.
	if m.ByHostKey[0].Label != "RSA-2048" {
		t.Errorf("top key = %q", m.ByHostKey[0].Label)
	}
	// EC-signed EC keys validate near-universally (§5.3.2's 99%).
	for _, c := range m.Combined {
		if c.Label == "EC-256 / ecdsa-with-SHA256" && c.Total >= 10 {
			if c.ValidPct() < 85 {
				t.Errorf("EC/EC cell validity = %.1f%%, want ~99%%", c.ValidPct())
			}
		}
	}
	// Weak signature algorithms correlate with invalidity.
	if c, ok := Cell(m.BySigAlgo, "sha1WithRSAEncryption"); ok && c.Total >= 5 {
		if c.ValidPct() > 40 {
			t.Errorf("SHA1 validity = %.1f%%, want low", c.ValidPct())
		}
	}
	// §5.3.2's weak populations surface as matrix cells: 1024-bit RSA
	// host keys and MD5/SHA1-signed leaves.
	if c, ok := Cell(m.ByHostKey, "RSA-1024"); !ok || c.Total == 0 {
		t.Error("no small-RSA hosts observed")
	}
	for _, label := range []string{"md5WithRSAEncryption", "sha1WithRSAEncryption"} {
		if c, ok := Cell(m.BySigAlgo, label); !ok || c.Total == 0 {
			t.Errorf("no %s hosts observed", label)
		}
	}
}

func TestDurationStats(t *testing.T) {
	d := ComputeDurationStats(worldScan(t))
	if len(d.ValidLifetimes) == 0 || len(d.InvalidLifetimes) == 0 {
		t.Fatal("no lifetime data")
	}
	// §5.3.1: invalid certificates have a much wider spread.
	if MaxLifetime(d.InvalidLifetimes) <= MaxLifetime(d.ValidLifetimes) {
		t.Error("invalid lifetimes should exceed valid ones")
	}
	under2y := 100 * float64(d.InvalidUnder2y) / float64(len(d.InvalidLifetimes))
	if under2y > 60 {
		t.Errorf("invalid under-2y share = %.1f%%, want ~32%%", under2y)
	}
	if d.Decades[10] == 0 {
		t.Error("no 10-year certificates")
	}
	mult := 100 * float64(d.Mult365) / float64(len(d.InvalidLifetimes))
	if mult < 20 || mult > 70 {
		t.Errorf("multiples of 365 = %.1f%%, want ~43%%", mult)
	}
}

func TestKeyReuse(t *testing.T) {
	s := ComputeKeyReuse(worldScan(t))
	if len(s.Clusters) == 0 {
		t.Fatal("no reuse clusters")
	}
	if len(s.CrossCountry) == 0 {
		t.Fatal("no cross-country reuse")
	}
	if s.MaxCountrySpan() < 5 {
		t.Errorf("max country span = %d, want the big shared cert", s.MaxCountrySpan())
	}
	// §5.3.3: no valid public-key reuse across country governments.
	if s.ValidCrossCountry != 0 {
		t.Errorf("found %d valid cross-country clusters, want 0", s.ValidCrossCountry)
	}
	// The widest cluster is the self-signed localhost certificate.
	if !s.CrossCountry[0].SelfSigned {
		t.Error("widest cross-country cluster should be self-signed")
	}
}

func TestWildcardViolators(t *testing.T) {
	v := ComputeWildcardViolators(worldScan(t))
	if len(v) == 0 {
		t.Fatal("no single-country wildcard violations")
	}
	for i := 1; i < len(v); i++ {
		if v[i-1].Hosts < v[i].Hosts {
			t.Fatal("violators not sorted")
		}
	}
}

func TestHostingBreakdown(t *testing.T) {
	buckets := HostingBreakdown(worldScan(t))
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	var cloud, private HostingBucket
	for _, b := range buckets {
		switch b.Label {
		case "Cloud":
			cloud = b
		case "Private":
			private = b
		}
	}
	if private.Total < cloud.Total {
		t.Error("government sites should be predominantly privately hosted")
	}
	// §5.4: cloud-hosted sites are roughly twice as valid as private.
	if cloud.ValidPctOfTotal() <= private.ValidPctOfTotal() {
		t.Errorf("cloud validity (%.1f%%) should exceed private (%.1f%%)",
			cloud.ValidPctOfTotal(), private.ValidPctOfTotal())
	}
}

func TestProviderBreakdownAWSLeadsCloud(t *testing.T) {
	buckets := ProviderBreakdown(worldScan(t))
	pos := map[string]int{}
	for i, b := range buckets {
		pos[b.Label] = i
	}
	if pos["Private"] != 0 {
		t.Errorf("Private should dominate, got order %v", buckets[0].Label)
	}
	if awsPos, cfPos := pos["AWS"], pos["Cloudflare"]; awsPos > cfPos {
		t.Errorf("AWS (%d) should outrank Cloudflare (%d) (§6.1.2)", awsPos, cfPos)
	}
}

func TestCountryBreakdown(t *testing.T) {
	rows := CountryBreakdown(worldScan(t))
	if len(rows) < 100 {
		t.Fatalf("countries = %d", len(rows))
	}
	byCC := make(map[string]CountryRow, len(rows))
	for _, r := range rows {
		byCC[r.Country] = r
	}
	us, ok := byCC["us"]
	if !ok {
		t.Fatal("no US row")
	}
	kr, cn := byCC["kr"], byCC["cn"]
	if us.ValidPct() <= kr.ValidPct() {
		t.Errorf("US validity (%.1f) should exceed ROK (%.1f)", us.ValidPct(), kr.ValidPct())
	}
	if cn.ValidPct() > 25 {
		t.Errorf("China validity = %.1f%%, want ~11%%", cn.ValidPct())
	}
}

func TestCrossGov(t *testing.T) {
	links := map[string][]string{}
	for _, h := range testWorld.GovHosts {
		if l := testWorld.Sites[h].Links; len(l) > 0 {
			links[h] = l
		}
	}
	s := ComputeCrossGov(links, countryOf)
	if len(s.OutDegree) < 50 {
		t.Fatalf("countries with outlinks = %d", len(s.OutDegree))
	}
	// §7.3.3 / Fig A.5: Austria links to the most governments; ~75% of
	// countries link to at least 7.
	if s.TopLinker != "at" {
		t.Errorf("top linker = %q, want at", s.TopLinker)
	}
	if s.ShareLinkingAtLeast7 < 0.5 || s.ShareLinkingAtLeast7 > 0.95 {
		t.Errorf("share linking >=7 = %.2f, want ~0.75", s.ShareLinkingAtLeast7)
	}
}

func TestOverlapTable(t *testing.T) {
	rows := ComputeOverlap(testWorld.TopLists)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < 4; i++ {
		if rows[i].Tranco < rows[i-1].Tranco {
			t.Error("tranco overlap not monotone")
		}
		if rows[i].Majestic < rows[i-1].Majestic {
			t.Error("majestic overlap not monotone")
		}
	}
	// Table 1: Cisco has no gov sites in the top 1K and trails overall.
	if rows[0].Cisco != 0 {
		t.Errorf("cisco top-1K = %d, want 0", rows[0].Cisco)
	}
	if rows[3].Cisco >= rows[3].Majestic {
		t.Error("cisco should trail majestic at 1M")
	}
}

func TestRankComparison(t *testing.T) {
	rc := ComputeRankComparison(testWorld.TopLists, worldScan(t), 99, 50)
	if rc.Gov.N == 0 || rc.Random.N == 0 || rc.Matched.N == 0 {
		t.Fatalf("empty series: %d/%d/%d", rc.Gov.N, rc.Random.N, rc.Matched.N)
	}
	// §5.5: government validity (~30%) far below non-government (~55%).
	if rc.Gov.ValidRate >= rc.Random.ValidRate {
		t.Errorf("gov validity %.3f should trail non-gov %.3f", rc.Gov.ValidRate, rc.Random.ValidRate)
	}
	if rc.Gov.ValidRate >= rc.Matched.ValidRate {
		t.Errorf("gov validity %.3f should trail rank-matched %.3f", rc.Gov.ValidRate, rc.Matched.ValidRate)
	}
	// The top non-gov sample outperforms the uniform one.
	if rc.TopNonGov.ValidRate <= rc.Random.ValidRate {
		t.Errorf("top non-gov %.3f should beat uniform %.3f", rc.TopNonGov.ValidRate, rc.Random.ValidRate)
	}
	// All fitted slopes are negative: validity declines with rank.
	for _, s := range []RankSeries{rc.Random, rc.Matched} {
		if s.FitErr != nil {
			t.Fatalf("%s fit: %v", s.Name, s.FitErr)
		}
		if s.Fit.Slope >= 0 {
			t.Errorf("%s slope = %v, want negative", s.Name, s.Fit.Slope)
		}
	}
	// The matched sample's rank distribution tracks the government one.
	if diff := rc.Matched.MeanRank - rc.Gov.MeanRank; diff > float64(testWorld.TopLists.Max)/10 || diff < -float64(testWorld.TopLists.Max)/10 {
		t.Errorf("matched mean rank %.0f far from gov %.0f", rc.Matched.MeanRank, rc.Gov.MeanRank)
	}
}

func TestCloudCDNShare(t *testing.T) {
	// ROK sites sit almost entirely on private hosting (§6.2.2).
	s := scanner.New(testWorld.Net, testWorld.DNS, testWorld.Class,
		scanner.DefaultConfig(testWorld.Stores["apple"], testWorld.ScanTime))
	rok := resultset.New(s.ScanAll(context.Background(), testWorld.ROK.Hosts), resultset.Options{})
	if share := CloudCDNShare(rok); share > 0.05 {
		t.Errorf("ROK cloud share = %.4f, want ~0.002", share)
	}
}

func TestGovFilterCoversWorld(t *testing.T) {
	// The world's hostnames must be recognizable by the government filter
	// (modulo whitelist countries).
	f := govfilter.New()
	for h, cc := range testWorld.Whitelist {
		f.Whitelist(h, cc)
	}
	misses := 0
	for _, h := range testWorld.GovHosts {
		if !f.IsGov(h) {
			misses++
		}
	}
	if frac := float64(misses) / float64(len(testWorld.GovHosts)); frac > 0.01 {
		t.Errorf("filter misses %.2f%% of world hostnames", 100*frac)
	}
}

func TestVersionBreakdown(t *testing.T) {
	cells := ComputeVersionBreakdown(worldScan(t))
	if len(cells) < 2 {
		t.Fatalf("cells = %v", cells)
	}
	byVersion := map[string]VersionCell{}
	for _, c := range cells {
		byVersion[c.Version] = c
	}
	// Modern versions dominate; failed negotiations exist (the SSLv2-only
	// population among others).
	if byVersion["TLSv1.2"].Total == 0 {
		t.Error("no TLS 1.2 hosts")
	}
	if byVersion["(no handshake)"].Total == 0 {
		t.Error("no failed-negotiation hosts")
	}
	if byVersion["(no handshake)"].Valid != 0 {
		t.Error("failed negotiations cannot be valid")
	}
}
