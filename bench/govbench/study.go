package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/acmefleet"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// minIters is the fewest set-up/operation iterations a run of an
// iterating workload (study, observe) makes, so set-up time has a median.
const minIters = 3

// more reports whether an iterating workload runs iteration i, given the
// measured time so far: a fixed count when cfg.Iters is set (the traced
// repeat matches its untraced run), else until cfg.Seconds are measured.
func (c config) more(i int, measured float64) bool {
	if c.Iters > 0 {
		return i < c.Iters
	}
	return i < minIters || measured < c.Seconds
}

// runStudy runs the paper's pipeline exactly as `govreport -all` does:
// set-up is core.NewStudy (the world build), the operation is one
// core.RunAllExperiments over it. Every iteration builds a fresh study,
// because the suite mutates the world (S722, E4, E7/E8) and a second
// suite on the same study would measure different work.
//
// The traced repeat replaces RunAllExperiments with its registry-order
// equivalent — a Registry.Get per dataset, then one core.RunExperiment
// per experiment, with the memoized renewal campaign (FleetReport)
// called just before E7 — which renders the byte-identical transcript
// with one span per layer call.
func runStudy(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	wcfg := world.Config{Seed: cfg.Seed, Scale: cfg.scaleOr(0.1)}
	out := &outcome{}
	var first map[string]string // experiment outputs of the first iteration
	var lay studyLayers
	for i := 0; cfg.more(i, out.Measured); i++ {
		setup := tr.begin("setup", 0)
		collectPrevious(i)
		rt0 := readRuntime()
		t0 := clock.Now()
		ws := tr.begin("world.build", setup.id())
		s, err := core.NewStudy(wcfg)
		ws.end()
		if err != nil {
			return nil, err
		}
		out.Setups = append(out.Setups, clock.Now().Sub(t0).Seconds())
		lay.obs.worldAlloc = append(lay.obs.worldAlloc, rt0.since().AllocBytes/1e6)
		setup.end()

		op := tr.begin("core.suite", 0)
		rt0 = readRuntime()
		t0 = clock.Now()
		var results []core.SuiteResult
		if tr == nil {
			results, err = core.RunAllExperiments(ctx, s, core.SuiteOptions{})
		} else {
			results, err = tracedSuite(ctx, s, tr, op.id(), &lay)
		}
		var transcript bytes.Buffer
		for _, r := range results {
			if werr := report.WriteArtifact(&transcript, r.ID, r.Title, r.Output); werr != nil && err == nil {
				err = werr
			}
		}
		d := clock.Now().Sub(t0).Seconds()
		rt := rt0.since()
		op.end()
		out.Measured += d
		out.Attempted++
		if err != nil {
			out.Ops = append(out.Ops, inf)
			out.Failed++
			out.Failures = append(out.Failures, "suite: "+err.Error())
			continue
		}
		out.Ops = append(out.Ops, d)
		out.OK++
		lay.obs.runtime = lay.obs.runtime.plus(rt)

		sum := sha256.Sum256(transcript.Bytes())
		digest := hex.EncodeToString(sum[:])
		if first == nil {
			first = make(map[string]string, len(results))
			for _, r := range results {
				first[r.ID] = r.Output
			}
			out.Digest = digest
			if want, ok := goldenDigest("study", cfg.Seed, wcfg.Scale); ok {
				out.check(digest == want, "study transcript sha256 %s, recorded %s", digest, want)
			}
		} else {
			out.check(digest == out.Digest, "iteration %d transcript differs from iteration 0", i)
		}
		if tr != nil {
			probe := tr.begin("probe", 0)
			lay.probe(s, tr, probe.id())
			probe.end()
			out.Probe += probe.seconds()
		}
	}
	if first == nil {
		return out, nil
	}

	// Oracle: Table 2 recomputed from a plain ScanAll over a fresh world of
	// the same seed, indexed by resultset.New, must match the suite's T2 —
	// the registry's streamed build against the simplest path.
	chk := tr.begin("check", 0)
	want := table2Oracle(ctx, wcfg)
	out.check(first["T2"] == want, "T2 differs from a plain ScanAll + resultset.New recomputation")
	chk.end()

	if tr != nil {
		out.Layers, out.Extra = lay.metrics(tr.snapshot(), out)
	}
	return out, nil
}

// table2Oracle renders Table 2 from an independent scan of a fresh world.
func table2Oracle(ctx context.Context, wcfg world.Config) string {
	w := world.MustBuild(wcfg)
	cfg := scanner.DefaultConfig(w.Stores["apple"], w.ScanTime)
	cfg.Seed = w.Cfg.Seed
	cfg.Clock = w.Clock
	raw := scanner.New(w.Net, w.DNS, w.Class, cfg).ScanAll(ctx, w.GovHosts)
	set := resultset.New(raw, resultset.Options{CountryOf: w.CountryOf})
	return report.Table2(analysis.ComputeTable2(set))
}

// tracedSuite is RunAllExperiments' registry-order loop with a span around
// every layer call.
func tracedSuite(ctx context.Context, s *core.Study, tr *tracer, parent int64, lay *studyLayers) ([]core.SuiteResult, error) {
	for _, name := range s.DatasetNames() {
		if name == "acmefleet" {
			continue // its build runs the renewal campaign, which mutates the world
		}
		sp := tr.begin("dataset.warm:"+name, parent)
		set, err := s.Registry().Get(ctx, name)
		sp.end()
		if err != nil {
			return nil, err
		}
		if name != "usa:all" { // assembled from the usa:<key> sets, not scanned
			lay.scans = append(lay.scans, timedSet{set, sp.seconds()})
		}
		if name == "worldwide" {
			lay.worldwide = set
		}
	}
	var results []core.SuiteResult
	for _, e := range core.Experiments() {
		if e.ID == "E7" {
			sp := tr.begin("acmefleet.campaign", parent)
			rt0 := readRuntime()
			rep, _, err := s.FleetReport(ctx)
			lay.fleetAlloc = append(lay.fleetAlloc, rt0.since().AllocBytes/1e6)
			sp.end()
			if err != nil {
				return results, fmt.Errorf("FleetReport: %w", err)
			}
			lay.fleet = append(lay.fleet, rep.Final())
		}
		sp := tr.begin("core.exp:"+e.ID, parent)
		body, err := core.RunExperiment(ctx, s, e.ID)
		sp.end()
		if err != nil {
			return results, fmt.Errorf("%s: %w", e.ID, err)
		}
		results = append(results, core.SuiteResult{ID: e.ID, Title: e.Title, Output: body})
	}
	return results, nil
}

// studyLayers accumulates the study's per-layer observations across
// iterations of a traced run.
type studyLayers struct {
	obs        layerObs
	fleetAlloc []float64 // MB allocated by each renewal campaign
	fleet      []acmefleet.Snapshot
	// Set by tracedSuite, consumed by probe: this iteration's scanned
	// datasets (pre-mutation snapshots) with their Get times, and the
	// worldwide one.
	scans     []timedSet
	worldwide *resultset.Set
}

type timedSet struct {
	set     *resultset.Set
	seconds float64
}

// probe runs the traced-only measurements of one iteration: an index
// build over the worldwide results and the scan and cache counters.
func (l *studyLayers) probe(s *core.Study, tr *tracer, parent int64) {
	if l.worldwide != nil {
		opts := resultset.Options{CountryOf: s.World.CountryOf}
		sp := tr.begin("resultset.build", parent)
		resultset.New(l.worldwide.Results(), opts)
		sp.end()
	}
	for _, ts := range l.scans {
		l.obs.scanned(ts.set, ts.seconds)
	}
	l.scans, l.worldwide = nil, nil
	l.obs.caches(s.Scanner().Cfg)
}

// metrics derives the study's per-layer metrics from the spans and the
// accumulated observations: the common per-layer set, then the
// study-specific extras.
func (l *studyLayers) metrics(spans []span, out *outcome) (common, extra []metric) {
	iters := float64(out.OK)
	var analysisS, mutatorsS float64
	mutates := map[string]bool{}
	for _, e := range core.Experiments() {
		mutates["core.exp:"+e.ID] = e.MutatesWorld
	}
	warm := map[string]float64{} // per-iteration mean by dataset family
	for _, s := range spans {
		d := s.seconds()
		if name, ok := strings.CutPrefix(s.Name, "dataset.warm:"); ok {
			if strings.HasPrefix(name, "usa:") && name != "usa:all" {
				name = "usa" // summed over the usa:<key> datasets
			}
			warm[name] += d / iters
			continue
		}
		switch {
		case s.Name == "core.exp:FA4": // the crawl, reported as crawler.crawl_s
		case mutates[s.Name]:
			mutatorsS += d / iters
		case strings.HasPrefix(s.Name, "core.exp:"):
			analysisS += d / iters
		}
	}
	var renewals, attempts float64
	for _, f := range l.fleet {
		renewals += float64(f.Renewals)
		attempts += float64(f.Attempts)
	}
	campaign := medianOf(spanDurations(spans, "acmefleet.campaign"))
	common = l.obs.common(spans, "dataset.warm:worldwide", out)
	extra = []metric{
		{"dataset.warm_s.worldwide", warm["worldwide"], "s"},
		{"dataset.warm_s.usa", warm["usa"], "s"},
		{"dataset.warm_s.usa_all", warm["usa:all"], "s"},
		{"dataset.warm_s.rok", warm["rok"], "s"},
		{"crawler.crawl_s", medianOf(spanDurations(spans, "core.exp:FA4")), "s"},
		{"acmefleet.campaign_s", campaign, "s"},
		{"acmefleet.renewals", renewals / iters, "count"},
		{"acmefleet.renewals_per_s", renewals / iters / campaign, "1/s"},
		{"acmefleet.attempts_per_renewal", attempts / renewals, "count"},
		{"acmefleet.alloc_mb", medianOf(l.fleetAlloc), "MB"},
		{"core.analysis_s", analysisS, "s"},
		{"core.mutators_s", mutatorsS, "s"},
	}
	return common, extra
}
