package world

import (
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/hosting"
	"repro/internal/tlssim"
)

// Paper-scale worldwide counts for countries the paper singles out.
var specialCounts = map[string]int{
	"us": 9978, // §5.1: 1,841 no-https sites are 18.45% of the US total
	"cn": 9500, // §7.1.2, scaled to fit Table 2's worldwide marginals
	"kr": 3600, // ~1/6 of the US's reachable site count (§7.1.1)
}

// allHTTPSCountries had https on every detected hostname (§7.2); most had
// very few hostnames.
var allHTTPSCountries = map[string]int{
	"ao": 30, "bj": 28, "cd": 8, "ee": 46, "gn": 22,
	"nl": 62, "no": 58, "ch": 340, "vu": 12,
}

// tinyCountries still had fewer than 11 sites after all expansion (§4.2.3).
var tinyCountries = map[string]int{
	"td": 4, "km": 6, "gq": 3, "er": 2, "hn": 9, "nr": 2, "ne": 7,
	"kp": 2, "pw": 3, "st": 4, "ss": 5, "tg": 8, "tv": 2,
}

// countryJob is one country's unit of parallel site generation: seeds are
// drawn sequentially up front, generation runs on a worker, and the results
// are registered sequentially afterwards.
type countryJob struct {
	cc      string
	n       int
	factory *certFactory
	cr      *rand.Rand
	sites   []*Site
	unreach []unreachablePlan
}

// unreachablePlan defers an unreachable host's world-state mutations (IP
// allocation, DNS, indexes) to the sequential registration pass; x is the
// fate draw made on the worker.
type unreachablePlan struct {
	host string
	cc   string
	x    float64
}

// buildWorldwide generates the 135,408-hostname worldwide dataset. Country
// populations are independent, so their generation — name drawing, class
// assignment, key minting, certificate issuance — fans out across
// GOMAXPROCS workers. Everything that touches shared world state (IP
// allocator, DNS, site indexes) is deferred to a sequential registration
// pass in sorted-country order, and every RNG stream is seeded before the
// fan-out, so a given Config.Seed yields a bit-identical world regardless
// of scheduling.
func (w *World) buildWorldwide(r *rand.Rand) {
	counts := w.countryCounts()

	codes := make([]string, 0, len(counts))
	for cc := range counts {
		codes = append(codes, cc)
	}
	sort.Strings(codes)

	var jobs []*countryJob
	for _, cc := range codes {
		n := counts[cc]
		if n == 0 {
			continue
		}
		f := newCertFactory(w, rand.New(newSplitMix(r.Int63())))
		// Workers issue from private serial slices; the single epoch
		// certificate (§5.3.1) is installed in a deterministic post-pass.
		f.serialBase = uint64(len(jobs)+1) << 32
		f.epochCertPlaced = true
		cr := rand.New(newSplitMix(r.Int63() ^ int64(len(cc))))
		jobs = append(jobs, &countryJob{cc: cc, n: n, factory: f, cr: cr})
	}

	jobCh := make(chan *countryJob)
	var wg sync.WaitGroup
	for i := 0; i < min(runtime.GOMAXPROCS(0), len(jobs)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				w.generateCountry(job)
			}
		}()
	}
	for _, job := range jobs {
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()

	for _, job := range jobs {
		for _, s := range job.sites {
			s.IP = w.allocIP(s.Provider)
			w.registerWorldwide(s)
		}
		for _, u := range job.unreach {
			w.registerUnreachable(u)
		}
	}
	w.placeEpochCertSite(jobs)

	// Named sites from the paper, for flavour and for tests.
	f := newCertFactory(w, rand.New(newSplitMix(r.Int63())))
	w.addNamedSites(f, r)
}

// generateCountry builds one country's site records. It touches only the
// job's own RNGs and factory plus read-only world state (profiles, the CA
// registry, ScanTime), so jobs run concurrently.
func (w *World) generateCountry(job *countryJob) {
	country := geo.MustByCode(job.cc)
	prof := w.profileFor(country)
	gen := newNameGen(country, job.cr)
	job.sites = make([]*Site, 0, job.n)
	for i := 0; i < job.n; i++ {
		job.sites = append(job.sites, w.newGovSite(gen.next(), job.cc, prof, job.cr, job.factory))
	}
	// Unreachable extras: registered names that never return a 200.
	nUn := int(float64(job.n) * prof.UnreachableShare)
	job.unreach = make([]unreachablePlan, 0, nUn)
	for i := 0; i < nUn; i++ {
		job.unreach = append(job.unreach, unreachablePlan{
			host: gen.next(), cc: job.cc, x: job.cr.Float64(),
		})
	}
}

// placeEpochCertSite installs the world's single 1970-epoch certificate
// (§5.3.1) on the first self-signed government site in country order —
// worker factories suppress it so exactly one exists per world, chosen
// deterministically.
func (w *World) placeEpochCertSite(jobs []*countryJob) {
	for _, job := range jobs {
		for _, s := range job.sites {
			if s.Injected != ClassSelfSigned || len(s.Chain) != 1 {
				continue
			}
			if w.Sites[s.Hostname] != s {
				continue // lost a duplicate-hostname race at registration
			}
			leaf := s.Chain[0]
			s.Chain = []*cert.Certificate{ca.SelfSigned(leaf.PublicKey, leaf.DNSNames,
				time.Unix(0, 0).UTC(), 70*365*24*time.Hour, cert.SHA256WithRSA)}
			return
		}
	}
}

// profileFor derives the country profile, applying the special cases.
func (w *World) profileFor(c geo.Country) Profile {
	p := defaultProfile(c)
	switch c.Code {
	case "us":
		p.HTTPSShare = 0.815 // §5.1: 18.45% of US sites have no https
		p.ValidShare = 0.86
		p.InvalidMix = invalidMixUSA
		p.CAMix = caMixUSA
		p.CloudShare, p.CDNShare = 0.095, 0.035 // 13.02% on cloud+CDN (§6.1.2)
	case "cn":
		p.HTTPSShare = 0.58
		p.ValidShare = 0.11 // §7.1.2
		p.InvalidMix = invalidMixChina
		p.CAMix = caMixChina
		p.UnreachableShare = 1.0 // roughly half of Chinese hostnames unreachable
	case "kr":
		p.HTTPSShare = 0.63
		p.ValidShare = 0.38 // §6.2: 37.95% validity
		p.InvalidMix = invalidMixROK
		p.CAMix = caMixROK
		p.CloudShare, p.CDNShare = 0.002, 0.001 // 0.21% on cloud/CDN (§6.2.2)
	case "ch":
		p.CAMix = caMixSwitzerland
	}
	if _, ok := allHTTPSCountries[c.Code]; ok {
		// §7.2: nine countries had https on every detected hostname and
		// nothing to disclose — the registrars the campaign skipped.
		p.HTTPSShare = 1.0
		p.ValidShare = 1.0
	}
	return p
}

// countryCounts distributes the worldwide host population.
func (w *World) countryCounts() map[string]int {
	counts := make(map[string]int)
	total := w.scaled(paperWorldwideHosts, 400)
	used := 0
	take := func(cc string, paperN, minN int) {
		n := w.scaled(paperN, minN)
		counts[cc] = n
		used += n
	}
	for _, cc := range sortedKeys(specialCounts) {
		take(cc, specialCounts[cc], 40)
	}
	for _, cc := range sortedKeys(allHTTPSCountries) {
		take(cc, allHTTPSCountries[cc], 3)
	}
	for _, cc := range sortedKeys(tinyCountries) {
		if _, done := counts[cc]; !done {
			counts[cc] = min(tinyCountries[cc], 10) // never scale tiny countries up
			used += counts[cc]
		}
	}
	// Distribute the remainder over every other country by a weight that
	// favours populous, connected countries.
	remaining := total - used
	if remaining < 0 {
		remaining = 0
	}
	type cw struct {
		cc string
		w  float64
	}
	var weights []cw
	var sum float64
	for _, c := range geo.All() {
		if _, done := counts[c.Code]; done {
			continue
		}
		wgt := math.Sqrt(float64(c.Population)) * math.Pow(c.InternetPct/100, 1.5)
		if c.Territory {
			wgt *= 0.25
		}
		if wgt <= 0 {
			wgt = 1
		}
		weights = append(weights, cw{c.Code, wgt})
		sum += wgt
	}
	for _, e := range weights {
		n := int(float64(remaining) * e.w / sum)
		if n < 2 {
			n = 2
		}
		counts[e.cc] = n
	}
	return counts
}

// newGovSite generates one reachable worldwide government site.
func (w *World) newGovSite(host, cc string, prof Profile, r *rand.Rand, f *certFactory) *Site {
	s := &Site{Hostname: host, Country: cc}
	w.assignHosting(s, prof, r)

	httpsP := prof.HTTPSShare * hostingHTTPSFactor(s.HostKind)
	validP := prof.ValidShare * hostingValidFactor(s.HostKind)
	if r.Float64() < clamp(httpsP, 0.02, 1.0) {
		// Serving mode for https-capable sites: ~15% https-only, ~49%
		// redirecting, ~36% serving both without upgrade (§5.1).
		switch x := r.Float64(); {
		case x < 0.15:
			s.Serving = HTTPSOnly
		case x < 0.64:
			s.Serving = BothRedirect
		default:
			s.Serving = BothNoRedirect
		}
		class := ClassValid
		if prof.ValidShare < 0.999 && r.Float64() >= clamp(validP, 0.02, 0.98) {
			class = prof.InvalidMix.pick(r)
		}
		mix := prof.CAMix
		if mix == nil {
			mix = caMixWorldwide
		}
		f.configure(s, class, mix)
		if class == ClassValid && r.Float64() < 0.25 {
			s.HSTS = true
		}
	} else {
		s.Serving = HTTPOnly
		s.Injected = ClassNone
	}
	return s
}

// registerWorldwide adds the site to the world's indexes and DNS.
func (w *World) registerWorldwide(s *Site) {
	if _, dup := w.Sites[s.Hostname]; dup {
		return
	}
	w.addSite(s)
	w.GovHosts = append(w.GovHosts, s.Hostname)
	w.ByCountry[s.Country] = append(w.ByCountry[s.Country], s.Hostname)
	w.DNS.AddA(s.Hostname, s.IP)
	// §5.3.4: only ~1.36% of domains carry CAA records, all of them valid.
	if crc32ish(s.Hostname)%1000 < 14 {
		w.DNS.AddCAA(s.Hostname, dnssim.CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	}
}

// registerUnreachable records a hostname that never yields a 200: absent
// from DNS, refusing connections, or serving errors. The fate draw was made
// on the generating worker; only the shared-state mutations happen here.
func (w *World) registerUnreachable(p unreachablePlan) {
	if _, dup := w.Sites[p.host]; dup {
		return
	}
	w.UnreachableHosts = append(w.UnreachableHosts, p.host)
	switch {
	case p.x < 0.60:
		// NXDOMAIN: not added to DNS at all.
	case p.x < 0.85:
		// Resolves but nothing listens.
		w.DNS.AddA(p.host, w.allocIP("Private"))
	default:
		// Resolves and serves a 503 on http.
		ip := w.allocIP("Private")
		w.DNS.AddA(p.host, ip)
		w.addSite(&Site{Hostname: p.host, Country: p.cc, IP: ip, Serving: Unavailable})
	}
}

// assignHosting picks the provider. The IP is minted by the caller — for
// worldwide sites that happens in the sequential registration pass, because
// the allocator's per-provider counters are shared state.
func (w *World) assignHosting(s *Site, prof Profile, r *rand.Rand) {
	x := r.Float64()
	switch {
	case x < prof.CDNShare:
		s.Provider = "Cloudflare"
		s.HostKind = hosting.CDN
	case x < prof.CDNShare+prof.CloudShare:
		s.Provider = pickCloud(r)
		s.HostKind = hosting.Cloud
	default:
		s.Provider = "Private"
		s.HostKind = hosting.Private
	}
}

// pickCloud reflects §6.1.2: AWS is 3.5x more popular than Cloudflare, with
// Azure and Google Cloud closely following.
func pickCloud(r *rand.Rand) string {
	x := r.Float64() * 6.05
	switch {
	case x < 3.5:
		return "AWS"
	case x < 4.4:
		return "Azure"
	case x < 5.25:
		return "Google Cloud"
	case x < 5.55:
		return "IBM Cloud"
	case x < 5.85:
		return "Oracle Cloud"
	default:
		return "HP Enterprise"
	}
}

func hostingHTTPSFactor(k hosting.Kind) float64 {
	switch k {
	case hosting.Cloud:
		return 1.8
	case hosting.CDN:
		return 2.0
	default:
		return 0.92
	}
}

func hostingValidFactor(k hosting.Kind) float64 {
	switch k {
	case hosting.Cloud:
		return 1.22
	case hosting.CDN:
		return 1.28
	default:
		return 0.97
	}
}

// allocIP mints the next address in the provider's block ("Private" uses
// the simulation's private-hosting space).
func (w *World) allocIP(provider string) netip.Addr {
	var base netip.Addr
	switch provider {
	case "AWS":
		base = netip.MustParseAddr("52.0.0.0")
	case "Azure":
		base = netip.MustParseAddr("13.64.0.0")
	case "Google Cloud":
		base = netip.MustParseAddr("34.64.0.0")
	case "IBM Cloud":
		base = netip.MustParseAddr("169.44.0.0")
	case "Oracle Cloud":
		base = netip.MustParseAddr("129.146.0.0")
	case "HP Enterprise":
		base = netip.MustParseAddr("15.96.0.0")
	case "Cloudflare":
		base = netip.MustParseAddr("104.16.0.0")
	default:
		base = netip.MustParseAddr("190.0.0.0")
	}
	n := w.ipAlloc[provider]
	w.ipAlloc[provider] = n + 1
	b := base.As4()
	// Skip .0 and .255 to keep addresses plausible.
	n = n + n/254 + 1
	b[3] = byte(n % 256)
	b[2] = byte((n / 256) % 256)
	b[1] += byte(n / 65536)
	return netip.AddrFrom4(b)
}

// addNamedSites registers hostnames the paper calls out by name.
func (w *World) addNamedSites(f *certFactory, r *rand.Rand) {
	// nih.gov: the highest-ranked government hostname (Majestic rank 51).
	if _, ok := w.Sites["nih.gov"]; !ok {
		s := &Site{Hostname: "nih.gov", Country: "us", Provider: "Private", HostKind: hosting.Private}
		s.IP = w.allocIP("Private")
		s.Serving = BothRedirect
		f.configure(s, ClassValid, caMixUSA)
		s.HSTS = true
		w.registerWorldwide(s)
	}
	// miit.gov.cn: the top-ranked government site without TLS (rank 222).
	if _, ok := w.Sites["miit.gov.cn"]; !ok {
		s := &Site{Hostname: "miit.gov.cn", Country: "cn", Provider: "Private", HostKind: hosting.Private}
		s.IP = w.allocIP("Private")
		s.Serving = HTTPOnly
		s.Injected = ClassNone
		w.registerWorldwide(s)
	}
	// eta.gov.lk and its .sl phishing twin (§7.3.2). The phishing site is
	// NOT a government site; it lives in DNS with a valid certificate.
	if _, ok := w.Sites["eta.gov.lk"]; !ok {
		s := &Site{Hostname: "eta.gov.lk", Country: "lk", Provider: "Private", HostKind: hosting.Private}
		s.IP = w.allocIP("Private")
		s.Serving = BothRedirect
		f.configure(s, ClassValid, caMixWorldwide)
		w.registerWorldwide(s)
	}
	w.addSpoofSites(r)
}

// addSpoofSites registers the §7.3.2 attack surface: non-government sites
// with perfectly valid free certificates imitating government hostnames —
// the etagov.sl twin of eta.gov.lk and the 85 abcgov.us-style squats. They
// resolve in DNS and reach the CT log, but never join the government
// dataset (Country is empty).
func (w *World) addSpoofSites(r *rand.Rand) {
	spoofs := []string{"etagov.sl"}
	nSquats := w.scaled(85, 3)
	for _, h := range w.ByCountry["us"] {
		if nSquats == 0 {
			break
		}
		name, suffix, ok := strings.Cut(h, ".")
		if !ok || suffix != "gov" {
			continue
		}
		spoofs = append(spoofs, name+"gov.us")
		nSquats--
	}
	le := w.CAs.MustLookup("Let's Encrypt Authority X3")
	for _, host := range spoofs {
		if _, dup := w.Sites[host]; dup {
			continue
		}
		s := &Site{
			Hostname: host,
			Provider: "Private",
			HostKind: hosting.Private,
			IP:       w.allocIP("Private"),
			Serving:  BothRedirect,
			Injected: ClassValid,
			Issuer:   le.Name,
			TLSMin:   tlssim.TLS1_0,
			TLSMax:   tlssim.TLS1_2,
		}
		s.Chain = le.Issue(ca.Request{
			Hostnames: []string{host},
			Key:       cert.NewKey(r, cert.KeyRSA, 2048),
			NotBefore: w.ScanTime.AddDate(0, -1, 0),
		})
		w.addSite(s)
		w.DNS.AddA(host, s.IP)
	}
}

// crc32ish is a tiny deterministic string hash for stable per-host choices.
func crc32ish(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
