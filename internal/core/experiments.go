package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/acmefleet"
	"repro/internal/analysis"
	"repro/internal/certwatch"
	"repro/internal/crawler"
	"repro/internal/ctlog"
	"repro/internal/hstspreload"
	"repro/internal/longitudinal"
	"repro/internal/notify"
	"repro/internal/recommend"
	"repro/internal/report"
	"repro/internal/world"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the index key, e.g. "T2" (Table 2) or "F7" (Figure 7).
	ID string
	// Title describes the artifact.
	Title string
	// MutatesWorld marks experiments that change the world (S722 and E4
	// remediate and rescan, E7 and E8 run the renewal fleet); every later
	// experiment in the suite sees the changed world. The benchmark
	// harness reads it to attribute mutator time.
	MutatesWorld bool
	// Run computes and renders the artifact.
	Run func(ctx context.Context, s *Study) (string, error)
}

var (
	registryOnce sync.Once
	registryExps []Experiment
	registryIdx  map[string]int // lower-cased ID -> registryExps index
)

// registry builds the experiment table and its case-insensitive ID index
// once; callers must not mutate the returned slice.
func registry() ([]Experiment, map[string]int) {
	registryOnce.Do(func() {
		registryExps = []Experiment{
			{ID: "T1", Title: "Table 1: Overlap with public top millions", Run: runT1},
			{ID: "T2", Title: "Table 2: Worldwide validity and error taxonomy", Run: runT2},
			{ID: "F1", Title: "Figure 1: Worldwide per-country view", Run: runF1},
			{ID: "F2", Title: "Figure 2: Top 40 cert issuers worldwide", Run: runF2},
			{ID: "F3", Title: "Figure 3: Certificates by issue and expiry date", Run: runF3},
			{ID: "F4", Title: "Figure 4: Validity by key type and signing algorithm", Run: runF4},
			{ID: "F5", Title: "Figure 5: Validity by hosting type (USA/ROK/world)", Run: runF5},
			{ID: "F6", Title: "Figure 6: Validity and hosting, gov vs non-gov top million", Run: runF6},
			{ID: "F7", Title: "Figure 7: Valid https rate by top-million rank", Run: runF7},
			{ID: "F8", Title: "Figure 8: USA cert issuers", Run: runF8},
			{ID: "F9", Title: "Figure 9: USA key/signing validity", Run: runF9},
			{ID: "F10", Title: "Figure 10: USA & ROK validity by issue date", Run: runF10},
			{ID: "F11", Title: "Figure 11: ROK cert issuers", Run: runF11},
			{ID: "F12", Title: "Figure 12: ROK key/signing validity", Run: runF12},
			{ID: "F13", Title: "Figure 13: Disclosure response by population rank", Run: runF13},
			{ID: "TA1", Title: "Table A.1: US GSA dataset breakdown", Run: runTA1},
			{ID: "TA2", Title: "Table A.2: US per-dataset vulnerability breakdown", Run: runTA2},
			{ID: "TA3", Title: "Table A.3: South Korea dataset breakdown", Run: runTA3},
			{ID: "TA4", Title: "Table A.4: South Korea vulnerability breakdown", Run: runTA4},
			{ID: "FA1", Title: "Figure A.1: USA validity by hosting per dataset", Run: runFA1},
			{ID: "FA2", Title: "Figure A.2: Top EV CAs (USA)", Run: runFA2},
			{ID: "FA3", Title: "Figure A.3: Top EV CAs (ROK)", Run: runFA3},
			{ID: "FA4", Title: "Figure A.4: Crawler effectiveness", Run: runFA4},
			{ID: "FA5", Title: "Figure A.5: Cross-government links", Run: runFA5},
			{ID: "FA6", Title: "Figure A.6: Top EV CAs (worldwide)", Run: runFA6},
			{ID: "S533", Title: "Section 5.3.3: Key pair reuse", Run: runS533},
			{ID: "S534", Title: "Section 5.3.4: CAA record adoption", Run: runS534},
			{ID: "S722", Title: "Section 7.2.2: Notification effectiveness", MutatesWorld: true, Run: runS722},
			{ID: "E1", Title: "Extension: CT coverage of government certificates (§2.2)", Run: runE1},
			{ID: "E2", Title: "Extension: CT lookalike monitoring (§7.3.2)", Run: runE2},
			{ID: "E3", Title: "Extension: Recommendations checklist (§8)", Run: runE3},
			{ID: "E4", Title: "Extension: Longitudinal monitoring (future work)", MutatesWorld: true, Run: runE4},
			{ID: "E5", Title: "Extension: HSTS preload impact (§8.2)", Run: runE5},
			{ID: "E6", Title: "Extension: §8.1 key-reuse issuance policy replay", Run: runE6},
			{ID: "E7", Title: "Extension: ACME renewal fleet adoption curve (§8.1)", MutatesWorld: true, Run: runE7},
			{ID: "E8", Title: "Extension: renewal fleet error-class decay (§8.1)", MutatesWorld: true, Run: runE8},
		}
		registryIdx = make(map[string]int, len(registryExps))
		for i := range registryExps {
			registryIdx[strings.ToLower(registryExps[i].ID)] = i
		}
	})
	return registryExps, registryIdx
}

// Experiments returns the full registry, ordered as in DESIGN.md. The
// slice is a copy.
func Experiments() []Experiment {
	exps, _ := registry()
	out := make([]Experiment, len(exps))
	copy(out, exps)
	return out
}

// LookupExperiment resolves an experiment by ID, case-insensitively,
// through the lazily-built registry index.
func LookupExperiment(id string) (Experiment, bool) {
	exps, idx := registry()
	i, ok := idx[strings.ToLower(id)]
	if !ok {
		return Experiment{}, false
	}
	return exps[i], true
}

// RunExperiment executes the experiment with the given ID.
func RunExperiment(ctx context.Context, s *Study, id string) (string, error) {
	e, ok := LookupExperiment(id)
	if !ok {
		return "", fmt.Errorf("core: unknown experiment %q", id)
	}
	return e.Run(ctx, s)
}

func runT1(_ context.Context, s *Study) (string, error) {
	return report.Table1(analysis.ComputeOverlap(s.World.TopLists)), nil
}

func runT2(ctx context.Context, s *Study) (string, error) {
	return report.Table2(analysis.ComputeTable2(s.Worldwide(ctx))), nil
}

func runF1(ctx context.Context, s *Study) (string, error) {
	rows := analysis.CountryBreakdown(s.Worldwide(ctx))
	return report.Figure1(rows, 40), nil
}

func runF2(ctx context.Context, s *Study) (string, error) {
	issuers := analysis.IssuerBreakdown(s.Worldwide(ctx), s.Store())
	return report.Issuers("Figure 2: Top 40 Cert Issuers for Government Websites", issuers, 40), nil
}

func runF3(ctx context.Context, s *Study) (string, error) {
	d := analysis.ComputeDurationStats(s.Worldwide(ctx))
	return report.Durations("Figure 3 / Section 5.3.1: Certificates by issue and expiry", d), nil
}

func runF4(ctx context.Context, s *Study) (string, error) {
	m := analysis.ComputeKeyAlgoMatrix(s.Worldwide(ctx))
	out := report.KeyAlgo("Figure 4: Worldwide validity by key type and CA signing algorithm", m)
	out += "\nNegotiated protocol versions (§5.3's unsupported-protocol population):\n"
	for _, c := range analysis.ComputeVersionBreakdown(s.Worldwide(ctx)) {
		out += fmt.Sprintf("  %-16s %6d hosts, %d valid\n", c.Version, c.Total, c.Valid)
	}
	return out, nil
}

func runF5(ctx context.Context, s *Study) (string, error) {
	var b strings.Builder
	usa := s.USAAll(ctx)
	rok := s.ROK(ctx)
	ww := s.Worldwide(ctx)
	b.WriteString(report.Hosting("Figure 5 (left): USA validity by hosting", analysis.HostingBreakdown(usa)))
	b.WriteByte('\n')
	b.WriteString(report.Hosting("Figure 5 (center): ROK validity by hosting", analysis.HostingBreakdown(rok)))
	b.WriteByte('\n')
	b.WriteString(report.Hosting("Figure 5 (right): Worldwide validity by hosting", analysis.HostingBreakdown(ww)))
	b.WriteByte('\n')
	b.WriteString(report.Hosting("Providers (worldwide)", analysis.ProviderBreakdown(ww)))
	b.WriteString(fmt.Sprintf("\nUSA cloud+CDN share: %.2f%%   ROK cloud+CDN share: %.2f%%\n",
		100*analysis.CloudCDNShare(usa), 100*analysis.CloudCDNShare(rok)))
	return b.String(), nil
}

func runF6(ctx context.Context, s *Study) (string, error) {
	return report.RankComparison(s.RankComparison(ctx)), nil
}

func runF7(ctx context.Context, s *Study) (string, error) {
	rc := s.RankComparison(ctx)
	return report.RankComparison(rc) + "\n" + report.RankBins(rc), nil
}

func runF8(ctx context.Context, s *Study) (string, error) {
	issuers := analysis.IssuerBreakdown(s.USAAll(ctx), s.Store())
	return report.Issuers("Figure 8: USA certificate validity by issuing authority", issuers, 40), nil
}

func runF9(ctx context.Context, s *Study) (string, error) {
	m := analysis.ComputeKeyAlgoMatrix(s.USAAll(ctx))
	return report.KeyAlgo("Figure 9: USA validity by key type and CA signing algorithm", m), nil
}

func runF10(ctx context.Context, s *Study) (string, error) {
	var b strings.Builder
	b.WriteString(report.Durations("Figure 10 (USA): validity by issue date", analysis.ComputeDurationStats(s.USAAll(ctx))))
	b.WriteByte('\n')
	b.WriteString(report.Durations("Figure 10 (ROK): validity by issue date", analysis.ComputeDurationStats(s.ROK(ctx))))
	return b.String(), nil
}

func runF11(ctx context.Context, s *Study) (string, error) {
	issuers := analysis.IssuerBreakdown(s.ROK(ctx), s.Store())
	return report.Issuers("Figure 11: ROK certificate validity by issuing authority", issuers, 40), nil
}

func runF12(ctx context.Context, s *Study) (string, error) {
	m := analysis.ComputeKeyAlgoMatrix(s.ROK(ctx))
	return report.KeyAlgo("Figure 12: ROK validity by key type and CA signing algorithm", m), nil
}

func runF13(ctx context.Context, s *Study) (string, error) {
	reports := notify.BuildReports(s.Worldwide(ctx), s.deadLinked())
	campaign := notify.Campaign(reports, s.Rand("disclosure"))
	return report.Campaign(campaign), nil
}

func runTA1(ctx context.Context, s *Study) (string, error) {
	rows, err := s.gsaBreakdowns(ctx)
	if err != nil {
		return "", err
	}
	return report.Datasets("Table A.1: Breakdown of US GSA Datasets", rows), nil
}

func runTA2(ctx context.Context, s *Study) (string, error) {
	var b strings.Builder
	b.WriteString("Table A.2: Breakdown of Govt. Websites in United States by Vulnerability\n\n")
	for _, ds := range s.World.USA.Datasets {
		results, err := s.USADataset(ctx, ds.Key)
		if err != nil {
			return "", err
		}
		b.WriteString(report.Table2WithTitle(ds.Name, analysis.ComputeTable2(results)))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func runTA3(ctx context.Context, s *Study) (string, error) {
	rows := []report.DatasetBreakdown{{Name: "South Korea Domains Set", Tab: analysis.ComputeTable2(s.ROK(ctx))}}
	return report.Datasets("Table A.3: Breakdown of South Korea Datasets", rows), nil
}

func runTA4(ctx context.Context, s *Study) (string, error) {
	return report.Table2WithTitle("Table A.4: Breakdown of the South Korean Govt. websites by vulnerability",
		analysis.ComputeTable2(s.ROK(ctx))), nil
}

func runFA1(ctx context.Context, s *Study) (string, error) {
	var b strings.Builder
	b.WriteString("Figure A.1: Certificate validity by hosting per GSA dataset\n\n")
	for _, ds := range s.World.USA.Datasets {
		results, err := s.USADataset(ctx, ds.Key)
		if err != nil {
			return "", err
		}
		b.WriteString(report.Hosting(ds.Name, analysis.HostingBreakdown(results)))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func runFA2(ctx context.Context, s *Study) (string, error) {
	ev := analysis.EVIssuerBreakdown(s.USAAll(ctx), s.Store())
	return report.EV(analysis.ComputeEVStats(s.USAAll(ctx), s.Store())) + "\n" +
		report.Issuers("Figure A.2: Top EV CAs for USA government websites", ev, 20), nil
}

func runFA3(ctx context.Context, s *Study) (string, error) {
	ev := analysis.EVIssuerBreakdown(s.ROK(ctx), s.Store())
	return report.EV(analysis.ComputeEVStats(s.ROK(ctx), s.Store())) + "\n" +
		report.Issuers("Figure A.3: Top EV CAs for ROK government websites", ev, 20), nil
}

func runFA4(ctx context.Context, s *Study) (string, error) {
	c := crawler.New(&crawler.WebFetcher{Dialer: s.World.Net, Resolver: s.World.DNS, Vantage: "lab"})
	_, stats := c.Crawl(ctx, s.World.SeedHosts)
	return report.Crawl(stats), nil
}

func runFA5(_ context.Context, s *Study) (string, error) {
	return report.CrossGov(analysis.ComputeCrossGov(s.LinkGraph(), s.CountryOf)), nil
}

func runFA6(ctx context.Context, s *Study) (string, error) {
	ev := analysis.EVIssuerBreakdown(s.Worldwide(ctx), s.Store())
	return report.EV(analysis.ComputeEVStats(s.Worldwide(ctx), s.Store())) + "\n" +
		report.Issuers("Figure A.6: Top EV CAs worldwide", ev, 20), nil
}

func runS533(ctx context.Context, s *Study) (string, error) {
	reuse := analysis.ComputeKeyReuse(s.Worldwide(ctx))
	var b strings.Builder
	b.WriteString(report.KeyReuse(reuse))
	violators := analysis.ComputeWildcardViolators(s.Worldwide(ctx))
	if len(violators) > 0 {
		b.WriteString("\nTop single-country wildcard violators:\n")
		max := 5
		if len(violators) < max {
			max = len(violators)
		}
		for _, v := range violators[:max] {
			b.WriteString(fmt.Sprintf("  %s: %d certificates across %d hostnames\n", v.Country, v.Certs, v.Hosts))
		}
	}
	return b.String(), nil
}

func runS534(_ context.Context, s *Study) (string, error) {
	with, valid := s.World.DNS.CAACount()
	return report.CAA(with, valid, len(s.World.GovHosts)), nil
}

func runS722(ctx context.Context, s *Study) (string, error) {
	before, after, _ := s.Remediate(ctx, s.Rand("remediation"))
	eff, err := notify.MeasureEffectiveness(before, after)
	if err != nil {
		return "", err
	}
	return report.Effectiveness(eff), nil
}

// gsaBreakdowns computes Table 2 per GSA dataset.
func (s *Study) gsaBreakdowns(ctx context.Context) ([]report.DatasetBreakdown, error) {
	var rows []report.DatasetBreakdown
	for _, ds := range s.World.USA.Datasets {
		results, err := s.USADataset(ctx, ds.Key)
		if err != nil {
			return nil, err
		}
		rows = append(rows, report.DatasetBreakdown{Name: ds.Name, Tab: analysis.ComputeTable2(results)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// deadLinked maps countries to unreachable hostnames still linked from live
// pages (part of the disclosure reports).
func (s *Study) deadLinked() map[string][]string {
	dead := map[string]bool{}
	for _, h := range s.World.UnreachableHosts {
		dead[h] = true
	}
	out := map[string][]string{}
	seen := map[string]bool{}
	for _, h := range s.World.GovHosts {
		site := s.World.Sites[h]
		for _, l := range site.Links {
			if dead[l] && !seen[l] {
				seen[l] = true
				out[site.Country] = append(out[site.Country], l)
			}
		}
	}
	return out
}

// --- Extension experiments (paper discussion sections made executable) ---

func runE1(_ context.Context, s *Study) (string, error) {
	log := s.World.CT
	cov := log.MeasureCoverage(s.World.GovLeafCerts())
	var b strings.Builder
	b.WriteString("Extension E1: Certificate Transparency coverage of government certificates\n")
	b.WriteString("===========================================================================\n")
	fmt.Fprintf(&b, "log size:                   %d entries\n", log.Size())
	fmt.Fprintf(&b, "distinct government leaves: %d\n", cov.Total)
	fmt.Fprintf(&b, "present in the log:         %d (%.1f%%)\n", cov.Logged, cov.Pct())
	b.WriteString("(§2.2: CT misses ~10% of com/net/org; the government gap was unmeasured.\n")
	b.WriteString(" Here the gap also includes self-signed and internal-CA chains, which\n")
	b.WriteString(" never reach a log at all.)\n")

	// Prove the log is behaving like a log: verify an inclusion proof and
	// a consistency proof against the current head.
	size := log.Size()
	if size >= 2 {
		root := log.Root()
		proof, err := log.InclusionProof(size/2, size)
		if err != nil {
			return "", err
		}
		entry := log.Entries()[size/2]
		ok := ctlog.VerifyInclusion(root, ctlog.LeafHash(entry.Cert.Encode()), size/2, size, proof)
		fmt.Fprintf(&b, "inclusion proof for entry %d: verified=%v (path length %d)\n", size/2, ok, len(proof))
		oldRoot, _ := log.RootAt(size / 2)
		cproof, err := log.ConsistencyProof(size/2, size)
		if err != nil {
			return "", err
		}
		okC := ctlog.VerifyConsistency(oldRoot, root, size/2, size, cproof)
		fmt.Fprintf(&b, "consistency proof %d -> %d: verified=%v (path length %d)\n", size/2, size, okC, len(cproof))
	}
	return b.String(), nil
}

func runE2(_ context.Context, s *Study) (string, error) {
	w := certwatch.NewWatcher(s.World.GovHosts)
	matches := w.ScanLog(s.World.CT)
	var b strings.Builder
	b.WriteString("Extension E2: CT-based lookalike monitoring (§7.3.2, §8.2)\n")
	b.WriteString("===========================================================\n")
	fmt.Fprintf(&b, "log entries scanned: %d\n", s.World.CT.Size())
	fmt.Fprintf(&b, "lookalike certificates flagged: %d\n", len(matches))
	byRule := map[string]int{}
	var rules []string
	for _, m := range matches {
		if _, seen := byRule[m.Rule.String()]; !seen {
			rules = append(rules, m.Rule.String())
		}
		byRule[m.Rule.String()]++
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Fprintf(&b, "  %-20s %d\n", rule, byRule[rule])
	}
	max := 8
	if len(matches) < max {
		max = len(matches)
	}
	b.WriteString("sample findings:\n")
	for _, m := range matches[:max] {
		fmt.Fprintf(&b, "  %-28s imitates %-28s (%s)\n", m.Candidate, m.Target, m.Rule)
	}
	return b.String(), nil
}

func runE3(ctx context.Context, s *Study) (string, error) {
	results := s.Worldwide(ctx)
	hasCAA := func(h string) bool { return len(s.World.DNS.LookupCAA(h)) > 0 }
	findings := recommend.Evaluate(results, hasCAA, recommend.SharedKeyIDs(results))
	out := recommend.Render(recommend.Summarize(findings))
	grouped := recommend.ByCountry(findings, s.CountryOf)
	out += fmt.Sprintf("\ncountries with findings: %d, total findings: %d\n", len(grouped), len(findings))
	return out, nil
}

func runE4(ctx context.Context, s *Study) (string, error) {
	scan, followUp, _ := s.Remediate(ctx, s.Rand("longitudinal"))
	before := longitudinal.Capture(s.World.ScanTime, scan)
	after := longitudinal.Capture(world.FollowUpScanTime, followUp)

	c := longitudinal.Diff(before, after)
	var b strings.Builder
	b.WriteString("Extension E4: Longitudinal monitoring (§4.2.3 future work)\n")
	b.WriteString("===========================================================\n")
	fmt.Fprintf(&b, "snapshots: %s -> %s\n", before.Taken.Format("2006-01-02"), after.Taken.Format("2006-01-02"))
	fmt.Fprintf(&b, "diff: %s\n", c.Summary())
	gaps := longitudinal.GapReport(after, longitudinal.ValidHTTPS)
	fmt.Fprintf(&b, "hosts still below valid https: %d\n", len(gaps))
	b.WriteString("(regressions are dominated by 90-day certificates lapsing without\n")
	b.WriteString(" renewal between the scans — deterioration the paper could not\n")
	b.WriteString(" measure because it only re-scanned previously invalid hosts.)\n")
	return b.String(), nil
}

func runE5(ctx context.Context, s *Study) (string, error) {
	results := s.Worldwide(ctx)
	var b strings.Builder
	b.WriteString("Extension E5: HSTS preload impact (§8.2, the 2020 DotGov mandate)\n")
	b.WriteString("==================================================================\n")
	eligible := hstspreload.EligibleHosts(results)
	fmt.Fprintf(&b, "hosts meeting the preload submission bar today: %d of %d\n\n", len(eligible), results.Len())
	for _, suffix := range []string{"gov", "go.kr", "gov.cn", "gov.uk"} {
		imp := hstspreload.SimulateImpact(suffix, results)
		if imp.Covered == 0 {
			continue
		}
		fmt.Fprintf(&b, "preload .%-8s covered=%6d  ready=%6d (%.1f%%)  would break=%d\n",
			suffix, imp.Covered, imp.Ready, imp.ReadyPct(), imp.WouldBreak)
	}
	b.WriteString("\n(preloading forces browsers to refuse plain http and invalid https;\n")
	b.WriteString(" the breakage column is the long tail the mandate cuts off until the\n")
	b.WriteString(" certificate fixes of §8 land.)\n")
	return b.String(), nil
}

func runE6(ctx context.Context, s *Study) (string, error) {
	replay := analysis.ReplayReusePolicy(s.Worldwide(ctx))
	var b strings.Builder
	b.WriteString("Extension E6: the §8.1 key-reuse issuance policy, replayed\n")
	b.WriteString("===========================================================\n")
	fmt.Fprintf(&b, "issuance events replayed:        %d\n", replay.Issuances)
	fmt.Fprintf(&b, "refused by the policy:           %d\n", replay.Blocked)
	fmt.Fprintf(&b, "governments with refused events: %d\n", replay.BlockedCountries)
	b.WriteString("(each refusal is a certification of a public key already bound to an\n")
	b.WriteString(" unrelated hostname — the cross-government private-key sharing §5.3.3\n")
	b.WriteString(" warns about. Same-zone wildcard reuse passes the subdomain carve-out.)\n")
	return b.String(), nil
}

// fleetSampleTicks picks every 10th snapshot plus the final one — the
// rows the E7/E8 tables render.
func fleetSampleTicks(n int) []int {
	var out []int
	for i := 0; i < n; i += 10 {
		out = append(out, i)
	}
	if n > 0 && out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

func runE7(ctx context.Context, s *Study) (string, error) {
	rep, chaos, err := s.FleetReport(ctx)
	if err != nil {
		return "", err
	}
	after := s.scanFleetCorpus(ctx, rep)
	var adopt, fixcert int
	for _, h := range rep.Hosts {
		if h.Reason == recommend.AdoptHTTPS {
			adopt++
		} else {
			fixcert++
		}
	}
	var b strings.Builder
	b.WriteString("Extension E7: automated ACME renewal fleet — adoption curve (§8.1)\n")
	b.WriteString("===================================================================\n")
	fmt.Fprintf(&b, "enrolled: %d misconfigured hosts (adopt-https %d, fix-certificate %d)\n",
		rep.Enrolled, adopt, fixcert)
	fmt.Fprintf(&b, "chaos profile: %d flaky, %d truncating, %d CAA-denied hosts\n",
		len(chaos.Flaky), len(chaos.Truncated), len(chaos.CAADenied))
	b.WriteString("\n  day  renewed  parked  denied  pending  adoption%\n")
	for _, i := range fleetSampleTicks(len(rep.Snapshots)) {
		sn := rep.Snapshots[i]
		fmt.Fprintf(&b, "  %3d  %7d  %6d  %6d  %7d  %8.1f%%\n",
			sn.Tick, sn.Renewed, sn.Parked, sn.Denied, sn.Enrolled,
			100*float64(sn.Renewed)/float64(rep.Enrolled))
	}
	final := rep.Final()
	fmt.Fprintf(&b, "\nfinal adoption: %.1f%% of the enrolled corpus renewed (%d certificate rotations)\n",
		100*float64(final.Renewed)/float64(rep.Enrolled), final.Renewals)
	counts := after.Counts()
	fmt.Fprintf(&b, "post-campaign rescan of the corpus: %d of %d hosts now serve valid https (%.1f%%)\n",
		counts.Valid, after.Len(), 100*float64(counts.Valid)/float64(after.Len()))
	b.WriteString("(the paper's manual disclosure moved single-digit percentages of the\n")
	b.WriteString(" notified population in two months — see S722's Improvement rows; the\n")
	b.WriteString(" automated loop converts everything but the parked/denied long tail.)\n")
	return b.String(), nil
}

func runE8(ctx context.Context, s *Study) (string, error) {
	rep, _, err := s.FleetReport(ctx)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Extension E8: renewal fleet error-class decay (§8.1)\n")
	b.WriteString("=====================================================\n")
	b.WriteString("cumulative order failures by class:\n\n")
	b.WriteString("  day  network  challenge  rate-limited  caa-denied  key-reuse  other\n")
	for _, i := range fleetSampleTicks(len(rep.Snapshots)) {
		sn := rep.Snapshots[i]
		fmt.Fprintf(&b, "  %3d  %7d  %9d  %12d  %10d  %9d  %5d\n",
			sn.Tick,
			sn.Errors[acmefleet.ErrNetwork], sn.Errors[acmefleet.ErrChallenge],
			sn.Errors[acmefleet.ErrRateLimited], sn.Errors[acmefleet.ErrCAA],
			sn.Errors[acmefleet.ErrKeyReuse], sn.Errors[acmefleet.ErrOther])
	}
	mid := rep.Snapshots[len(rep.Snapshots)/2]
	final := rep.Final()
	var early, late int
	for c := acmefleet.ErrClass(1); c < acmefleet.NumErrClasses; c++ {
		early += mid.Errors[c]
		late += final.Errors[c] - mid.Errors[c]
	}
	fmt.Fprintf(&b, "\nfailures in the first half of the campaign: %d, in the second: %d\n", early, late)
	var parked, denied int
	for _, h := range rep.Hosts {
		if h.Terminal {
			switch h.State {
			case acmefleet.FleetParked:
				parked++
			case acmefleet.FleetDenied:
				denied++
			default:
				// Terminal is only ever set alongside Parked or Denied.
			}
		}
	}
	fmt.Fprintf(&b, "terminal long tail: %d hosts parked (probation exhausted), %d denied by policy\n", parked, denied)
	b.WriteString("(transient classes concentrate early and stop accumulating once backoff\n")
	b.WriteString(" and the failure budget absorb them; the terminal classes — CAA and\n")
	b.WriteString(" key-reuse refusals — are flat lines no retry schedule can bend.)\n")
	return b.String(), nil
}
