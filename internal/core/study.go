// Package core orchestrates the full reproduction: it builds the synthetic
// world, runs the scans (worldwide, USA GSA, ROK Government24) through the
// named-dataset registry, and exposes an experiment registry with one entry
// per table and figure of the paper.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"sync"
	"time"

	"repro/internal/acme"
	"repro/internal/acmefleet"
	"repro/internal/analysis"
	"repro/internal/cert"
	"repro/internal/dataset"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/truststore"
	"repro/internal/verify"
	"repro/internal/world"
)

// RankBins is the bucket count of the Figure 7 rank comparison.
const RankBins = 50

// Study is a fully built world plus the dataset registry that lazily
// scans and indexes each named corpus.
type Study struct {
	World *world.World

	mu         sync.Mutex
	storeInUse string
	journal    *scanner.Journal
	breaker    *scanner.Breaker
	linkGraph  map[string][]string

	// rankCmp memoizes the §5.5 rank comparison Figures 6 and 7 share,
	// keyed by the worldwide snapshot it was computed from — dataset
	// invalidation swaps the Set pointer and so invalidates the memo.
	rankCmpFor *resultset.Set
	rankCmp    analysis.RankComparison

	// datasets memoizes one indexed resultset.Set per named corpus
	// (worldwide, usa:<key>, usa:all, rok); UseStore invalidates every
	// entry atomically.
	datasets *dataset.Registry

	// fleetReport memoizes the §8.1 renewal-fleet campaign (E7 and E8
	// consume one run; the campaign mutates the serving world, so it must
	// not repeat).
	fleetMu     sync.Mutex
	fleetReport *acmefleet.Report
	fleetChaos  acmefleet.ChaosOutcome

	// verifyCache and chainCache persist across every scanner this study
	// builds, so the worldwide, USA and ROK datasets — and repeat scans
	// under different stores — share one pool of verified chain structures
	// and parsed chains. The verify cache keys on the trust store, so no
	// invalidation is needed when UseStore switches.
	verifyCache *verify.Cache
	chainCache  *cert.ChainCache
}

// NewStudy builds the world for the configuration and registers the named
// datasets.
func NewStudy(cfg world.Config) (*Study, error) {
	w, err := world.Build(cfg)
	if err != nil {
		return nil, err
	}
	s := &Study{
		World:       w,
		storeInUse:  "apple",
		verifyCache: verify.NewCache(),
		chainCache:  cert.NewChainCache(),
	}
	s.datasets = dataset.NewRegistry(s.scanDataset)
	s.datasets.Register(dataset.Source{
		Name:  "worldwide",
		Hosts: func() []string { return s.World.GovHosts },
	})
	for _, ds := range w.USA.Datasets {
		hosts := ds.Hosts
		s.datasets.Register(dataset.Source{
			Name:  "usa:" + ds.Key,
			Hosts: func() []string { return hosts },
		})
	}
	s.datasets.Register(dataset.Source{
		Name:  "usa:all",
		Hosts: func() []string { return s.World.USA.AllHosts() },
		Build: func(ctx context.Context) (*resultset.Set, error) { return s.assembleUSAAll(ctx) },
	})
	s.datasets.Register(dataset.Source{
		Name:  "rok",
		Hosts: func() []string { return s.World.ROK.Hosts },
	})
	return s, nil
}

// indexOptions is the index framing of every corpus: country attribution.
func (s *Study) indexOptions() resultset.Options {
	return resultset.Options{CountryOf: s.World.CountryOf}
}

// scanDataset is the registry's scan function: probe the hosts with the
// study's current scanner posture and index the results.
func (s *Study) scanDataset(ctx context.Context, hosts []string) *resultset.Set {
	return resultset.New(s.Scanner().ScanAll(ctx, hosts), s.indexOptions())
}

// assembleUSAAll builds the usa:all set from the cached per-key GSA
// datasets instead of rescanning their union: AllHosts() is the sorted
// distinct union of the per-key lists, so every member host is already
// scanned under some key, and per-host results are scan-order independent
// on fault-free worlds — assembling the per-key results in AllHosts()
// order is bit-identical to a direct scan at zero scan cost once the
// per-key tables (TA1/TA2/FA1) are warm. Hosts in several datasets take
// their result from the first registered dataset that lists them.
func (s *Study) assembleUSAAll(ctx context.Context) (*resultset.Set, error) {
	sources := make([][]scanner.Result, 0, len(s.World.USA.Datasets))
	for _, ds := range s.World.USA.Datasets {
		set, err := s.USADataset(ctx, ds.Key)
		if err != nil {
			return nil, err
		}
		sources = append(sources, set.Results())
	}
	set, err := resultset.Assemble(s.World.USA.AllHosts(), s.indexOptions(), sources...)
	if err != nil {
		return nil, fmt.Errorf("core: usa:all: %w", err)
	}
	return set, nil
}

// MustNewStudy is NewStudy for known-valid configurations.
func MustNewStudy(cfg world.Config) *Study {
	s, err := NewStudy(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// UseStore selects the trust store for subsequent scans ("apple",
// "microsoft", "nss") and invalidates every registered dataset — each
// exactly once, atomically with the switch, so a scan racing the switch
// can never be cached under the wrong store. The paper's default is the
// most restrictive store, Apple's (§4.3).
func (s *Study) UseStore(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.World.Stores[name]; !ok {
		return fmt.Errorf("core: unknown trust store %q", name)
	}
	if s.storeInUse != name {
		s.storeInUse = name
		s.datasets.InvalidateAll()
	}
	return nil
}

// Store returns the active trust store.
func (s *Study) Store() *truststore.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.World.Stores[s.storeInUse]
}

// SetCheckpoint attaches a JSON-lines scan journal at path: every host a
// subsequent scan completes is checkpointed, and — when resume is true —
// hosts already present in the journal are restored without re-scanning,
// so a study run killed mid-scan picks up from the last completed host.
// With resume false any existing journal is discarded and the scan starts
// fresh. One journal covers one dataset run; don't share a path between
// datasets.
func (s *Study) SetCheckpoint(path string, resume bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	if path == "" {
		return nil
	}
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("core: clearing checkpoint: %w", err)
		}
	}
	j, err := scanner.OpenJournal(path)
	if err != nil {
		return err
	}
	s.journal = j
	return nil
}

// CloseCheckpoint flushes and detaches the checkpoint journal, if any.
func (s *Study) CloseCheckpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// SetBreaker installs a per-provider circuit breaker on subsequent scans
// (nil disables). Breaker decisions depend on the interleaving of
// concurrent failures, so deterministic study runs leave it off.
func (s *Study) SetBreaker(b *scanner.Breaker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.breaker = b
}

// Scanner builds a scanner bound to the study's world and current posture
// (store, journal, breaker, shared caches), snapshotted atomically.
func (s *Study) Scanner() *scanner.Scanner {
	s.mu.Lock()
	cfg := scanner.DefaultConfig(s.World.Stores[s.storeInUse], s.World.ScanTime)
	cfg.Journal = s.journal
	cfg.Breaker = s.breaker
	s.mu.Unlock()
	cfg.Seed = s.World.Cfg.Seed
	cfg.Clock = s.World.Clock
	cfg.VerifyCache = s.verifyCache
	cfg.ChainCache = s.chainCache
	return scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg)
}

// CountryOf attributes a hostname to a country.
func (s *Study) CountryOf(hostname string) string { return s.World.CountryOf(hostname) }

// Dataset returns the named dataset's indexed scan results, scanning
// lazily on first use. Names: "worldwide", "usa:<key>", "usa:all", "rok"
// (see DatasetNames).
func (s *Study) Dataset(ctx context.Context, name string) (*resultset.Set, error) {
	return s.datasets.Get(ctx, name)
}

// DatasetNames lists the registered datasets in registration order:
// "worldwide", one "usa:<key>" per GSA list, "usa:all" and "rok". Every
// one is a read-only corpus; the renewal campaign E7/E8 run is not among
// them (see FleetReport).
func (s *Study) DatasetNames() []string { return s.datasets.Names() }

// Registry exposes the dataset registry itself — the serving layer pins
// generations on it directly (dataset.Registry.Pin) so queries keep a
// consistent snapshot while MarkDirty/UseStore churn underneath.
func (s *Study) Registry() *dataset.Registry { return s.datasets }

// MarkDatasetDirty records hosts whose cached results are stale after a
// world mutation — the hook the remediation experiments (S722, E4) use.
// The next Get patches the cached set, rescanning only the named hosts
// instead of the full corpus; on fault-free worlds the patched set is
// bit-identical to a full rescan.
func (s *Study) MarkDatasetDirty(name string, hosts []string) bool {
	return s.datasets.MarkDirty(name, hosts)
}

// DatasetInvalidations reports how many times the named dataset has been
// invalidated (test hook).
func (s *Study) DatasetInvalidations(name string) int { return s.datasets.Invalidations(name) }

// mustDataset resolves a name registered at construction; a miss is a
// programming error, not a runtime condition.
func (s *Study) mustDataset(ctx context.Context, name string) *resultset.Set {
	set, err := s.datasets.Get(ctx, name)
	if err != nil {
		panic(err)
	}
	return set
}

// Worldwide scans (once) the worldwide government host list.
func (s *Study) Worldwide(ctx context.Context) *resultset.Set {
	return s.mustDataset(ctx, "worldwide")
}

// USADataset scans (once) one GSA dataset by key.
func (s *Study) USADataset(ctx context.Context, key string) (*resultset.Set, error) {
	return s.datasets.Get(ctx, "usa:"+key)
}

// USAAll scans (once) the union of the GSA datasets.
func (s *Study) USAAll(ctx context.Context) *resultset.Set {
	return s.mustDataset(ctx, "usa:all")
}

// ROK scans (once) the Government24 dataset.
func (s *Study) ROK(ctx context.Context) *resultset.Set {
	return s.mustDataset(ctx, "rok")
}

// Remediate runs one §7.2.2 remediation round: it applies the
// remediation model (drawn from r) to the hosts the current worldwide
// snapshot measured invalid, marks the changed hosts dirty in the
// worldwide dataset, and measures the remediated world at the follow-up
// time. It returns the pre-remediation snapshot, the follow-up set and
// what changed. Callers must not scan concurrently with it: it mutates
// the world.
func (s *Study) Remediate(ctx context.Context, r *rand.Rand) (before, after *resultset.Set, outcome world.RemediationOutcome) {
	before = s.Worldwide(ctx)
	outcome = s.World.Remediate(before.InvalidHosts(), world.DefaultRemediationRates(), r)
	changed := outcome.ChangedHosts()
	s.MarkDatasetDirty("worldwide", changed)
	return before, s.followUp(ctx, before, changed), outcome
}

// followUp builds the worldwide-shaped follow-up set at
// world.FollowUpScanTime without re-probing the whole corpus. Only two
// groups of hosts are scanned again: the ones the remediation changed,
// and the ones whose port-80 or port-443 endpoint carries a transient
// fault, whose attempt counts depend on dial history. Every other row is
// the snapshot's, with its chain re-verified at the follow-up time — the
// only way the scan instant reaches a result. The set equals a full
// breaker-less rescan of the remediated world as long as the snapshot
// was scanned without a circuit breaker too, as deterministic study runs
// are. Re-probed hosts are checkpointed to the study's journal, if any.
func (s *Study) followUp(ctx context.Context, before *resultset.Set, changed []string) *resultset.Set {
	stale := make(map[string]bool, len(changed))
	for _, h := range changed {
		stale[h] = true
	}
	s.mu.Lock()
	cfg := scanner.DefaultConfig(s.World.Stores[s.storeInUse], world.FollowUpScanTime)
	cfg.Journal = s.journal
	s.mu.Unlock()
	cfg.Seed = s.World.Cfg.Seed
	cfg.VerifyCache = s.verifyCache
	cfg.ChainCache = s.chainCache
	v := verify.Verifier{Store: cfg.Store, Now: cfg.Now, Cache: cfg.VerifyCache}
	hosts := s.World.GovHosts
	rows := make([]scanner.Result, len(hosts))
	var probe []string
	var probeAt []int
	for i, h := range hosts {
		row, ok := before.Lookup(h)
		if !ok || stale[h] || s.dialHistoryDependent(row.IP) {
			probe = append(probe, h)
			probeAt = append(probeAt, i)
			continue
		}
		rows[i] = *row
		if len(row.Chain) > 0 {
			rows[i].Verify = v.Verify(row.Chain, h)
		}
	}
	sc := scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg)
	for k, r := range sc.ScanAll(ctx, probe) {
		rows[probeAt[k]] = r
	}
	return resultset.New(rows, s.indexOptions())
}

// dialHistoryDependent reports whether a scan of the host at ip depends
// on the dial history of its port-80 or port-443 endpoint.
func (s *Study) dialHistoryDependent(ip netip.Addr) bool {
	if !ip.IsValid() {
		return false
	}
	return s.World.Net.FaultAt(netip.AddrPortFrom(ip, 80)).Mode.Transient() ||
		s.World.Net.FaultAt(netip.AddrPortFrom(ip, 443)).Mode.Transient()
}

// RankComparison computes (once per worldwide snapshot) the rank-matched
// government vs non-government comparison Figures 6 and 7 both render.
func (s *Study) RankComparison(ctx context.Context) analysis.RankComparison {
	ww := s.Worldwide(ctx)
	s.mu.Lock()
	if s.rankCmpFor == ww {
		rc := s.rankCmp
		s.mu.Unlock()
		return rc
	}
	s.mu.Unlock()
	rc := analysis.ComputeRankComparison(s.World.TopLists, ww, s.World.Cfg.Seed, RankBins)
	s.mu.Lock()
	s.rankCmpFor, s.rankCmp = ww, rc
	s.mu.Unlock()
	return rc
}

// Rand derives a deterministic source from the study seed and a label.
func (s *Study) Rand(label string) *rand.Rand {
	h := int64(-3750763034362895579)
	for _, b := range []byte(label) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(s.World.Cfg.Seed ^ h))
}

// FleetReport runs (once) the §8.1 automated renewal campaign: enroll
// every worldwide host the scan recommends AdoptHTTPS or FixCertificate
// for, subject them to the default chaos profile, and drive http-01
// renewals through the simulated ACME CA until the campaign horizon. The
// campaign mutates the serving world — rotated certificates stay deployed
// — so the result is memoized for the study's lifetime and the worldwide
// dataset is patch-invalidated for the renewed and chaos-faulted hosts.
// The memo is checked before worldwide is resolved, so repeat calls leave
// that patch for the next worldwide reader to build, if there is one.
// Like S722 and E4, callers must not scan concurrently with it.
func (s *Study) FleetReport(ctx context.Context) (*acmefleet.Report, acmefleet.ChaosOutcome, error) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if s.fleetReport != nil {
		return s.fleetReport, s.fleetChaos, nil
	}
	set, err := s.datasets.Get(ctx, "worldwide")
	if err != nil {
		return nil, acmefleet.ChaosOutcome{}, err
	}
	enrolled := acmefleet.Enroll(set)
	hosts := make([]string, len(enrolled))
	for i, e := range enrolled {
		hosts[i] = e.Hostname
	}
	chaos := acmefleet.DefaultChaos().Apply(s.World, hosts, s.World.Cfg.Seed)
	fleet := acmefleet.New(s.World, set, s.fleetConfig(len(enrolled)))
	rep := fleet.Run(ctx)
	// Rotated certificates are not the campaign's only trace: the chaos
	// faults are too (a truncating port 80 changes what a scan sees).
	dirty := rep.ChangedHosts()
	dirty = append(dirty, chaos.Flaky...)
	dirty = append(dirty, chaos.Truncated...)
	dirty = append(dirty, chaos.CAADenied...)
	s.MarkDatasetDirty("worldwide", dirty)
	s.fleetReport, s.fleetChaos = rep, chaos
	return rep, chaos, nil
}

// fleetConfig shapes the study's campaign: Let's Encrypt-style limits — a
// global new-order cap sized so a compliant fleet needs roughly three
// weeks for the corpus (spreading the adoption curve over the horizon)
// plus a per-registered-domain weekly cap. The fleet mirrors the limits
// client-side, so the campaign paces itself instead of harvesting 429s.
func (s *Study) fleetConfig(enrolled int) acmefleet.Config {
	return acmefleet.Config{
		Seed: s.World.Cfg.Seed,
		Limits: acme.RateLimits{
			Global:          enrolled/20 + 5,
			GlobalWindow:    24 * time.Hour,
			PerDomain:       5,
			PerDomainWindow: 7 * 24 * time.Hour,
		},
	}
}

// scanFleetCorpus scans exactly the campaign's enrolled hosts — the
// post-campaign ground truth E7 verifies adoption against. The scan runs
// at the campaign-end instant, not the study scan time: fleet
// certificates have mid-campaign NotBefore dates and would all be "not
// yet valid" at the original instant. Nothing memoizes the set: E7 runs
// once per suite, and a plain dataset read must never start the
// campaign, which rewrites the world.
func (s *Study) scanFleetCorpus(ctx context.Context, rep *acmefleet.Report) *resultset.Set {
	hosts := make([]string, len(rep.Hosts))
	for i := range rep.Hosts {
		hosts[i] = rep.Hosts[i].Hostname
	}
	cfg := scanner.DefaultConfig(s.Store(), rep.Final().Time)
	cfg.Seed = s.World.Cfg.Seed
	cfg.Clock = s.World.Clock
	cfg.VerifyCache = s.verifyCache
	cfg.ChainCache = s.chainCache
	sc := scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg)
	return resultset.New(sc.ScanAll(ctx, hosts), s.indexOptions())
}

// LinkGraph extracts the world's hyperlink graph for the cross-government
// analysis. The graph is built once and memoized; each call returns a
// fresh map so callers can add or drop entries without corrupting the
// cache (the link slices are shared and must be treated as read-only).
func (s *Study) LinkGraph() map[string][]string {
	s.mu.Lock()
	if s.linkGraph == nil {
		links := map[string][]string{}
		for _, h := range s.World.GovHosts {
			if l := s.World.Sites[h].Links; len(l) > 0 {
				links[h] = l
			}
		}
		s.linkGraph = links
	}
	cached := s.linkGraph
	s.mu.Unlock()

	out := make(map[string][]string, len(cached))
	for h, l := range cached { //lint:allow maprange defensive map copy; iteration order never escapes — callers receive an unordered map either way
		out[h] = l
	}
	return out
}
