package world

import (
	"bufio"
	"context"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/tlssim"
	"repro/internal/verify"
)

// testWorld is shared across the package's tests; building even a small
// world is the expensive part.
var testWorld = MustBuild(TestConfig())

func TestBuildPopulations(t *testing.T) {
	w := testWorld
	if len(w.GovHosts) < 2000 {
		t.Fatalf("worldwide hosts = %d, want >= 2000 at 2%% scale", len(w.GovHosts))
	}
	if len(w.UnreachableHosts) < 300 {
		t.Errorf("unreachable hosts = %d", len(w.UnreachableHosts))
	}
	if len(w.SeedHosts) < 300 {
		t.Errorf("seed hosts = %d", len(w.SeedHosts))
	}
	if len(w.ByCountry) < 150 {
		t.Errorf("countries represented = %d, want >= 150", len(w.ByCountry))
	}
	if w.USA == nil || len(w.USA.Datasets) != 15 {
		t.Fatalf("USA datasets = %v", w.USA)
	}
	if w.ROK == nil || len(w.ROK.Hosts) < 300 {
		t.Fatalf("ROK hosts missing")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustBuild(Config{Seed: 7, Scale: 0.005})
	b := MustBuild(Config{Seed: 7, Scale: 0.005})
	if len(a.GovHosts) != len(b.GovHosts) {
		t.Fatalf("host counts differ: %d vs %d", len(a.GovHosts), len(b.GovHosts))
	}
	for i := range a.GovHosts {
		if a.GovHosts[i] != b.GovHosts[i] {
			t.Fatalf("host %d differs: %q vs %q", i, a.GovHosts[i], b.GovHosts[i])
		}
	}
	ha, hb := a.GovHosts[len(a.GovHosts)/2], b.GovHosts[len(b.GovHosts)/2]
	sa, sb := a.Sites[ha], b.Sites[hb]
	if sa.Injected != sb.Injected || sa.IP != sb.IP {
		t.Errorf("site attributes differ for %q", ha)
	}
	if len(sa.Chain) > 0 && sa.Chain[0].Fingerprint() != sb.Chain[0].Fingerprint() {
		t.Errorf("certificates differ for %q", ha)
	}
	c := MustBuild(Config{Seed: 8, Scale: 0.005})
	if len(c.GovHosts) == len(a.GovHosts) && c.GovHosts[0] == a.GovHosts[0] && c.GovHosts[1] == a.GovHosts[1] {
		// Different seeds producing an identical prefix would be suspicious.
		same := true
		for i := range a.GovHosts {
			if i >= len(c.GovHosts) || a.GovHosts[i] != c.GovHosts[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical worlds")
		}
	}
}

func TestServingMarginals(t *testing.T) {
	w := testWorld
	var https, total int
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		total++
		if s.Serving.HasHTTPS() {
			https++
		}
	}
	share := float64(https) / float64(total)
	// Table 2: 39.33% of worldwide sites serve https. Allow a band.
	if share < 0.30 || share > 0.50 {
		t.Errorf("https share = %.3f, want ~0.39", share)
	}
}

func TestValidityMarginals(t *testing.T) {
	w := testWorld
	var valid, https int
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if !s.Serving.HasHTTPS() {
			continue
		}
		https++
		if s.Injected == ClassValid {
			valid++
		}
	}
	share := float64(valid) / float64(https)
	// Table 2: 71.41% of https sites are valid.
	if share < 0.60 || share > 0.82 {
		t.Errorf("valid share of https = %.3f, want ~0.71", share)
	}
}

func TestErrorOrdering(t *testing.T) {
	w := testWorld
	counts := map[ErrorClass]int{}
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Serving.HasHTTPS() && s.Injected != ClassValid {
			counts[s.Injected]++
		}
	}
	// Table 2 ordering: mismatch > local issuer > self-signed > expired >
	// self-signed-in-chain.
	if !(counts[ClassHostnameMismatch] > counts[ClassLocalIssuer]) {
		t.Errorf("mismatch (%d) !> local issuer (%d)", counts[ClassHostnameMismatch], counts[ClassLocalIssuer])
	}
	if !(counts[ClassLocalIssuer] > counts[ClassSelfSigned]) {
		t.Errorf("local issuer (%d) !> self-signed (%d)", counts[ClassLocalIssuer], counts[ClassSelfSigned])
	}
	if !(counts[ClassSelfSigned] > counts[ClassExpired]) {
		t.Errorf("self-signed (%d) !> expired (%d)", counts[ClassSelfSigned], counts[ClassExpired])
	}
	if !(counts[ClassExpired] > counts[ClassSelfSignedChain]) {
		t.Errorf("expired (%d) !> ss-chain (%d)", counts[ClassExpired], counts[ClassSelfSignedChain])
	}
}

func TestInjectedClassesMeasurable(t *testing.T) {
	// Ground-truth classes must be rediscoverable by the verifier.
	w := testWorld
	v := &verify.Verifier{Store: w.Stores["apple"], Now: w.ScanTime}
	checked := map[ErrorClass]int{}
	agreed := map[ErrorClass]int{}
	want := map[ErrorClass]verify.Code{
		ClassValid:            verify.OK,
		ClassHostnameMismatch: verify.HostnameMismatch,
		ClassLocalIssuer:      verify.UnableToGetLocalIssuer,
		ClassSelfSigned:       verify.SelfSignedLeaf,
		ClassSelfSignedChain:  verify.SelfSignedInChain,
		ClassExpired:          verify.CertificateExpired,
	}
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		code, ok := want[s.Injected]
		if !ok || len(s.Chain) == 0 {
			continue
		}
		checked[s.Injected]++
		if res := v.Verify(s.Chain, s.Hostname); res.Code == code {
			agreed[s.Injected]++
		}
	}
	for class, n := range checked {
		if n == 0 {
			continue
		}
		rate := float64(agreed[class]) / float64(n)
		if rate < 0.95 {
			t.Errorf("class %v: verifier agrees on %.2f%% of %d sites", class, 100*rate, n)
		}
	}
	if len(checked) < 6 {
		t.Errorf("only %d classes present in world", len(checked))
	}
}

func TestUSACaseStudyValidity(t *testing.T) {
	w := testWorld
	var valid, https int
	for _, d := range w.USA.Datasets {
		for _, h := range d.Hosts {
			s, ok := w.Sites[h]
			if !ok || !s.Serving.HasHTTPS() {
				continue
			}
			https++
			if s.Injected == ClassValid {
				valid++
			}
		}
	}
	share := float64(valid) / float64(https)
	// §6.1: 81.12% valid across the GSA lists.
	if share < 0.72 || share > 0.92 {
		t.Errorf("USA validity = %.3f, want ~0.81", share)
	}
}

func TestROKCaseStudyValidity(t *testing.T) {
	w := testWorld
	var valid, https int
	for _, h := range w.ROK.Hosts {
		s, ok := w.Sites[h]
		if !ok || !s.Serving.HasHTTPS() {
			continue
		}
		https++
		if s.Injected == ClassValid {
			valid++
		}
	}
	share := float64(valid) / float64(https)
	// §6.2: valid share of ROK https = 5,226/13,768 ≈ 38%.
	if share < 0.28 || share > 0.48 {
		t.Errorf("ROK validity of https = %.3f, want ~0.38", share)
	}
}

func TestTopListOverlapShape(t *testing.T) {
	w := testWorld
	tl := w.TopLists
	// Table 1 shape: Tranco overlap grows by decade and Cisco trails
	// Majestic and Tranco.
	full := tl.GovCountWithin("tranco", tl.Max)
	if full == 0 {
		t.Fatal("no gov hosts in tranco")
	}
	if tl.GovCountWithin("tranco", tl.Max/1000) >= tl.GovCountWithin("tranco", tl.Max/10) {
		t.Error("tranco overlap does not grow with K")
	}
	if tl.GovCountWithin("cisco", tl.Max) >= tl.GovCountWithin("majestic", tl.Max) {
		t.Error("cisco overlap should trail majestic")
	}
}

func TestNonGovDeterministic(t *testing.T) {
	tl := testWorld.TopLists
	a := tl.NonGov(1234)
	b := tl.NonGov(1234)
	if a != b {
		t.Errorf("NonGov not deterministic: %+v vs %+v", a, b)
	}
	// Validity declines with rank in aggregate.
	countValid := func(lo, hi int) (valid, n int) {
		for rank := lo; rank < hi; rank++ {
			if tl.trancoRankSet[rank] {
				continue
			}
			a := tl.NonGov(rank)
			n++
			if a.Valid {
				valid++
			}
		}
		return
	}
	vTop, nTop := countValid(1, tl.Max/10)
	vBot, nBot := countValid(tl.Max*9/10, tl.Max)
	if float64(vTop)/float64(nTop) <= float64(vBot)/float64(nBot) {
		t.Errorf("non-gov validity should decline with rank: top %.3f bottom %.3f",
			float64(vTop)/float64(nTop), float64(vBot)/float64(nBot))
	}
}

func TestServedSiteEndToEnd(t *testing.T) {
	w := testWorld
	// Find a valid BothRedirect site and walk the whole stack.
	var site *Site
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Injected == ClassValid && s.Serving == BothRedirect {
			site = s
			break
		}
	}
	if site == nil {
		t.Fatal("no valid BothRedirect site in world")
	}
	ctx := context.Background()

	// http side redirects.
	conn, err := w.Net.Dial(ctx, "lab", netip.AddrPortFrom(site.IP, 80))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpsim.Get(conn, site.Hostname, "/")
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsRedirect() || resp.Location() != "https://"+site.Hostname+"/" {
		t.Errorf("http response = %d %q", resp.StatusCode, resp.Location())
	}

	// https side serves a page over a verifiable chain.
	raw, err := w.Net.Dial(ctx, "lab", netip.AddrPortFrom(site.IP, 443))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	tc, err := tlssim.ClientHandshake(raw, tlssim.DefaultClientConfig(site.Hostname))
	if err != nil {
		t.Fatal(err)
	}
	v := &verify.Verifier{Store: w.Stores["apple"], Now: w.ScanTime}
	if res := v.Verify(tc.ConnectionState().Chain, site.Hostname); !res.Valid() {
		t.Fatalf("served chain invalid: %v (%s)", res.Code, res.Detail)
	}
	resp2, err := httpsim.Get(tc, site.Hostname, "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 200 {
		t.Errorf("https status = %d", resp2.StatusCode)
	}
}

func TestUnavailableSiteServes503(t *testing.T) {
	w := testWorld
	found := false
	for _, h := range w.UnreachableHosts {
		s, ok := w.Sites[h]
		if !ok || s.Serving != Unavailable {
			continue
		}
		found = true
		conn, err := w.Net.Dial(context.Background(), "lab", netip.AddrPortFrom(s.IP, 80))
		if err != nil {
			t.Fatalf("dial unavailable site: %v", err)
		}
		resp, err := httpsim.Get(conn, h, "/")
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 200 {
			t.Errorf("unavailable site %q returned 200", h)
		}
		break
	}
	if !found {
		t.Skip("no 503-style unavailable site at this scale")
	}
}

func TestKeyReusePresent(t *testing.T) {
	w := testWorld
	keyHosts := map[[16]byte]map[string]bool{} // key -> countries
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if len(s.Chain) == 0 {
			continue
		}
		k := s.Chain[0].PublicKey.ID
		if keyHosts[k] == nil {
			keyHosts[k] = map[string]bool{}
		}
		keyHosts[k][s.Country] = true
	}
	crossCountry := 0
	maxCountries := 0
	for _, countries := range keyHosts {
		if len(countries) > 1 {
			crossCountry++
		}
		if len(countries) > maxCountries {
			maxCountries = len(countries)
		}
	}
	if crossCountry == 0 {
		t.Fatal("no cross-country key reuse injected")
	}
	if maxCountries < 5 {
		t.Errorf("largest reuse cluster spans %d countries, want the 24-country cert (scaled)", maxCountries)
	}
}

func TestCrawlDepthAssignment(t *testing.T) {
	w := testWorld
	byDepth := map[int]int{}
	for _, h := range w.GovHosts {
		byDepth[w.Sites[h].Depth]++
	}
	if byDepth[0] == 0 {
		t.Fatal("no seed-depth sites")
	}
	// Depth shares grow to a mid-level peak and taper at 6-7 (Fig A.4).
	if byDepth[6] >= byDepth[3] || byDepth[7] >= byDepth[3] {
		t.Errorf("crawl growth does not taper: %v", byDepth)
	}
}

func TestLinkGraphReachability(t *testing.T) {
	// Every non-seed site must be reachable from the seed set by links.
	w := testWorld
	visited := map[string]bool{}
	queue := append([]string(nil), w.SeedHosts...)
	for _, h := range queue {
		visited[h] = true
	}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		s, ok := w.Sites[h]
		if !ok {
			continue
		}
		for _, l := range s.Links {
			if _, isGov := w.Sites[l]; isGov && !visited[l] {
				visited[l] = true
				queue = append(queue, l)
			}
		}
	}
	missed := 0
	for _, h := range w.GovHosts {
		if !visited[h] {
			missed++
		}
	}
	if frac := float64(missed) / float64(len(w.GovHosts)); frac > 0.02 {
		t.Errorf("%.1f%% of gov sites unreachable from seeds", 100*frac)
	}
}

func TestMTurkCampaign(t *testing.T) {
	w := testWorld
	c := w.RunMTurk(rand.New(rand.NewSource(5)))
	if c.TasksIssued == 0 {
		t.Fatal("no MTurk tasks issued")
	}
	if len(c.CountriesCovered) == 0 {
		t.Fatal("no countries covered")
	}
	if len(c.Hostnames) < len(c.NewHostnames) {
		t.Error("new hostnames exceed total hostnames")
	}
	for _, h := range c.NewHostnames {
		if _, ok := w.Sites[h]; !ok {
			t.Errorf("MTurk returned unknown hostname %q", h)
		}
	}
}

func TestWhitelistCountries(t *testing.T) {
	w := testWorld
	if len(w.Whitelist) == 0 {
		t.Fatal("whitelist empty")
	}
	ccs := map[string]bool{}
	for _, cc := range w.Whitelist {
		ccs[cc] = true
	}
	for _, want := range []string{"de", "nl", "dk"} {
		if !ccs[want] {
			t.Errorf("whitelist missing country %s", want)
		}
	}
}

func TestNamedSites(t *testing.T) {
	w := testWorld
	nih, ok := w.Sites["nih.gov"]
	if !ok || nih.Injected != ClassValid {
		t.Error("nih.gov missing or invalid")
	}
	miit, ok := w.Sites["miit.gov.cn"]
	if !ok || miit.Serving != HTTPOnly {
		t.Error("miit.gov.cn missing or not http-only")
	}
}

func TestInvalidScaleRejected(t *testing.T) {
	if _, err := Build(Config{Seed: 1, Scale: 2.0}); err == nil {
		t.Error("scale 2.0 accepted")
	}
	if _, err := Build(Config{Seed: 1, Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestCAARecordsSparse(t *testing.T) {
	w := testWorld
	with, valid := w.DNS.CAACount()
	if with == 0 {
		t.Fatal("no CAA records in world")
	}
	if with != valid {
		t.Errorf("CAA: %d records, %d valid — paper reports 100%% valid", with, valid)
	}
	frac := float64(with) / float64(len(w.GovHosts))
	if frac > 0.05 {
		t.Errorf("CAA coverage %.3f, want ~0.014", frac)
	}
}

func TestQuirkSitesHandshakeFail(t *testing.T) {
	w := testWorld
	tried := 0
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Injected != ClassExcSSLProto || s.Fault != 0 {
			continue
		}
		raw, err := w.Net.Dial(context.Background(), "lab", netip.AddrPortFrom(s.IP, 443))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		_, err = tlssim.ClientHandshake(raw, tlssim.DefaultClientConfig(s.Hostname))
		raw.Close()
		if err != tlssim.ErrUnsupportedProtocol {
			t.Errorf("%s handshake err = %v, want unsupported protocol", h, err)
		}
		tried++
		if tried >= 3 {
			break
		}
	}
	if tried == 0 {
		t.Skip("no SSLv2-only sites at this scale")
	}
}

func TestBothNoRedirectServesBoth(t *testing.T) {
	w := testWorld
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Serving != BothNoRedirect || s.Injected != ClassValid {
			continue
		}
		conn, err := w.Net.Dial(context.Background(), "lab", netip.AddrPortFrom(s.IP, 80))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := httpsim.Get(conn, h, "/")
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("BothNoRedirect http status = %d, want 200 (no upgrade)", resp.StatusCode)
		}
		return
	}
	t.Skip("no valid BothNoRedirect site at this scale")
}

func TestPageLinksParseable(t *testing.T) {
	w := testWorld
	var site *Site
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Serving == HTTPOnly && len(s.Links) > 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Skip("no linked http site")
	}
	conn, err := w.Net.Dial(context.Background(), "lab", netip.AddrPortFrom(site.IP, 80))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := httpsim.WriteRequest(conn, "GET", site.Hostname, "/"); err != nil {
		t.Fatal(err)
	}
	resp, err := httpsim.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	links := httpsim.ExtractLinks(resp.Body)
	if len(links) != len(site.Links) {
		t.Errorf("page links = %d, site links = %d", len(links), len(site.Links))
	}
}

func TestSpoofSitesPresent(t *testing.T) {
	w := testWorld
	spoof, ok := w.Sites["etagov.sl"]
	if !ok {
		t.Fatal("etagov.sl missing")
	}
	if spoof.Country != "" {
		t.Error("spoof site attributed to a government")
	}
	if spoof.Injected != ClassValid {
		t.Error("spoof site should carry a valid certificate (§7.3.2)")
	}
	for _, h := range w.GovHosts {
		if h == "etagov.sl" {
			t.Fatal("spoof site leaked into the government dataset")
		}
	}
	// The squat population derived from .gov names exists.
	squats := 0
	for h, s := range w.Sites {
		if s.Country == "" && s.Injected == ClassValid && strings.HasSuffix(h, "gov.us") {
			squats++
		}
	}
	if squats == 0 {
		t.Error("no abcgov.us-style squats in world")
	}
}

func TestCTLogPopulated(t *testing.T) {
	w := testWorld
	if w.CT == nil || w.CT.Size() == 0 {
		t.Fatal("CT log empty")
	}
	cov := w.CT.MeasureCoverage(w.GovLeafCerts())
	// ~10% CT blind spot plus never-logged self-signed/internal chains.
	if cov.Pct() < 55 || cov.Pct() > 95 {
		t.Errorf("CT coverage = %.1f%%, want a visible but partial gap", cov.Pct())
	}
	logged := map[string]bool{}
	for _, e := range w.CT.Entries() {
		for _, name := range e.Cert.Names() {
			logged[strings.ToLower(name)] = true
		}
	}
	// covered reports whether a logged certificate names h exactly or
	// through a wildcard one label up.
	covered := func(h string) bool {
		if logged[h] {
			return true
		}
		dot := strings.IndexByte(h, '.')
		return dot >= 0 && logged["*."+h[dot+1:]]
	}
	// The spoof sites are in the log (that is what makes them catchable).
	if !covered("etagov.sl") {
		t.Error("spoof certificate not logged")
	}
	// Self-signed chains never reach the log.
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Injected == ClassSelfSigned && len(s.Chain) > 0 && s.Chain[0].SelfSigned() {
			if covered(h) {
				t.Errorf("self-signed certificate of %s found in CT log", h)
			}
			break
		}
	}
}
