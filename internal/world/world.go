// Package world generates the study's synthetic Internet: ~195 national
// governments' web estates with per-country misconfiguration profiles
// calibrated to the paper's published aggregates, served over the simulated
// network (DNS + TCP + TLS + HTTP), plus the top-million ranking lists, the
// authoritative USA (GSA) and South Korea (Government24) datasets, the
// registrar directory for the disclosure campaign, and the cross-government
// link graph the crawler walks.
//
// Everything derives deterministically from Config.Seed; two builds with the
// same configuration are bit-identical.
package world

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/ctlog"
	"repro/internal/dnssim"
	"repro/internal/hosting"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/tlssim"
	"repro/internal/truststore"
)

// Serving describes what a site answers on ports 80/443.
type Serving int

// Serving modes.
const (
	// Unavailable sites do not resolve or never return a 200.
	Unavailable Serving = iota
	// HTTPOnly serves plain http only.
	HTTPOnly
	// HTTPSOnly serves https only (port 80 closed).
	HTTPSOnly
	// BothRedirect serves http that redirects to https.
	BothRedirect
	// BothNoRedirect serves full content on both schemes — the paper's
	// "failed upgrade" population (§5.1).
	BothNoRedirect
)

// HasHTTPS reports whether the site attempts to serve https at all.
func (s Serving) HasHTTPS() bool {
	return s == HTTPSOnly || s == BothRedirect || s == BothNoRedirect
}

// HasHTTP reports whether port 80 serves something.
func (s Serving) HasHTTP() bool {
	return s == HTTPOnly || s == BothRedirect || s == BothNoRedirect
}

// Site is one simulated website, government or otherwise.
type Site struct {
	Hostname string
	// Country is the ISO code of the government operating the site, or ""
	// for non-government sites.
	Country string
	IP      netip.Addr
	// Provider and HostKind classify the hosting (§5.4).
	Provider string
	HostKind hosting.Kind
	Serving  Serving
	// Chain is the certificate chain served on 443 (leaf first).
	Chain []*cert.Certificate
	// Issuer is the issuing CA name, "" for self-signed chains.
	Issuer string
	// TLSMin/TLSMax bound the server's protocol support.
	TLSMin, TLSMax tlssim.Version
	// Quirk is a TLS-level misbehaviour.
	Quirk tlssim.Quirk
	// Fault is a network-level failure mode.
	Fault simnet.Fault
	// HSTS adds a Strict-Transport-Security header on https responses.
	HSTS bool
	// Links are outbound hyperlinks (hostnames) on the landing page.
	Links []string
	// Depth is the crawl level at which the site becomes discoverable
	// (0 = in the seed list).
	Depth int
	// Injected is the ground-truth error class the generator planted,
	// letting tests distinguish measurement error from generation error.
	Injected ErrorClass

	// renderOnce lazily caches the serialized 200/301 responses the site's
	// handlers write, so repeated scans stop re-rendering the page per
	// request. Populated on first request, after Links are final.
	renderOnce   sync.Once
	respHTTP     []byte
	respHTTPS    []byte
	respRedirect []byte
}

// World is a fully built synthetic Internet.
type World struct {
	Cfg    Config
	Net    *simnet.Network
	DNS    *dnssim.Zone
	CAs    *ca.Registry
	Stores map[string]*truststore.Store
	Class  *hosting.Classifier
	// ScanTime is the instant certificates are judged against: always
	// DefaultScanTime, the paper's main scan (22–26 April 2020), except
	// while remediation or churn mint certificates at a later instant.
	ScanTime time.Time
	// Clock is the virtual clock the network (and its fault latency
	// injection) runs on; scanners share it so backoff and injected
	// latency advance the same simulated timeline.
	Clock *simclock.Virtual

	// Sites indexes every site by hostname.
	Sites map[string]*Site
	// GovHosts lists government hostnames in the worldwide dataset, sorted.
	GovHosts []string
	// ByCountry groups worldwide government hostnames by ISO code.
	ByCountry map[string][]string
	// UnreachableHosts are registered names that never return a 200 — the
	// population excluded from the worldwide analysis (§7.2.2).
	UnreachableHosts []string
	// SeedHosts is the merged top-million-derived seed list (§4.1).
	SeedHosts []string
	// TopLists carries the synthetic ranking datasets.
	TopLists *TopLists
	// USA holds the GSA case-study datasets (§6.1, Appendix A.1).
	USA *USAData
	// ROK holds the South Korea case-study dataset (§6.2, Appendix A.2).
	ROK *ROKData
	// CT is the certificate-transparency log covering most CA-issued
	// certificates (§2.2).
	CT *ctlog.Log

	ipAlloc map[string]uint32 // per-block allocation counters
	// challenges holds the http-01 tokens the ACME renewal fleet has
	// published; the request path skips it entirely while empty.
	challenges challengeState
	// siteOrder lists hostnames in insertion order. Build is
	// deterministic, so the order is too; passes that need a canonical
	// iteration over every site (buildCT) walk it instead of sorting the
	// Sites keys from scratch.
	siteOrder []string
	// changes is the append-only record of post-build world mutations
	// (rotations, remediation, churn) that the observatory tails.
	changes changeLog
}

// addSite registers the site in the hostname index, tracking insertion
// order. Callers must have checked for duplicates when overwriting is not
// intended.
func (w *World) addSite(s *Site) {
	if _, dup := w.Sites[s.Hostname]; !dup {
		w.siteOrder = append(w.siteOrder, s.Hostname)
	}
	w.Sites[s.Hostname] = s
}

// CountryOf returns the country code for a hostname known to the world.
func (w *World) CountryOf(hostname string) string {
	if s, ok := w.Sites[hostname]; ok {
		return s.Country
	}
	return ""
}

// Build constructs the world from the configuration.
func Build(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("world: scale %v out of range (0, 1]", cfg.Scale)
	}
	// Rough host-population ceiling across every dataset (worldwide +
	// unreachable + USA + ROK + spoofs); pre-sizing the big tables keeps a
	// build from rehashing them a dozen times.
	hostHint := int(float64(paperWorldwideHosts+paperUnreachableHosts+paperROKHosts+40000)*cfg.Scale) + 1024
	w := &World{
		Cfg:       cfg,
		Net:       simnet.NewSized(2 * hostHint),
		DNS:       dnssim.NewZoneSized(hostHint),
		Class:     hosting.DefaultClassifier(),
		ScanTime:  DefaultScanTime,
		Sites:     make(map[string]*Site, hostHint),
		ByCountry: make(map[string][]string),
		ipAlloc:   make(map[string]uint32),
	}
	w.GovHosts = make([]string, 0, hostHint)
	w.siteOrder = make([]string, 0, hostHint)
	w.Clock = simclock.NewVirtual(DefaultScanTime)
	w.Net.SetClock(w.Clock)
	w.Net.SetSeed(cfg.Seed)

	root := rand.New(rand.NewSource(cfg.Seed))
	w.CAs = ca.NewRegistry(rand.New(rand.NewSource(root.Int63())))
	w.Stores = w.CAs.BuildDefaultStores(rand.New(rand.NewSource(root.Int63())))

	w.buildWorldwide(rand.New(rand.NewSource(root.Int63())))
	w.injectKeyReuse(rand.New(rand.NewSource(root.Int63())))
	w.buildLinks(rand.New(rand.NewSource(root.Int63())))
	w.buildTopLists(rand.New(rand.NewSource(root.Int63())))
	w.buildUSA(rand.New(rand.NewSource(root.Int63())))
	w.buildROK(rand.New(rand.NewSource(root.Int63())))
	w.buildCT(rand.New(rand.NewSource(root.Int63())))
	w.buildFirewall()
	w.serveAll()
	w.injectTransientFaults()

	sort.Strings(w.GovHosts)
	sort.Strings(w.UnreachableHosts)
	sort.Strings(w.SeedHosts)
	return w, nil
}

// MustBuild is Build for configurations known to be valid.
func MustBuild(cfg Config) *World {
	w, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// scaled applies the configured scale to a paper-scale count, keeping at
// least min when the unscaled count is positive.
func (w *World) scaled(n int, min int) int {
	if n <= 0 {
		return 0
	}
	v := int(float64(n)*w.Cfg.Scale + 0.5)
	if v < min {
		v = min
	}
	return v
}
