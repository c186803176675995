// Package govhttps is the public API of the reproduction of "Accept the
// Risk and Continue: Measuring the Long Tail of Government https Adoption"
// (IMC 2020). It builds a deterministic synthetic Internet of government
// websites calibrated to the paper's published measurements, runs the
// paper's scanning pipeline against it, and regenerates every table and
// figure of the evaluation.
//
// Quick start:
//
//	study := govhttps.MustNewStudy(govhttps.SmallConfig())
//	out, err := govhttps.RunExperiment(context.Background(), study, "T2")
//	fmt.Println(out)
//
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface: world construction, scanning, the experiment registry
// and the crawler/disclosure entry points. The registry spans T1/T2, every
// figure (F1-F13), the appendix artifacts (TA1-TA4, FA1-FA6), the section
// results (S533, S534, S722) and eight executable extensions (E1-E8).
package govhttps

import (
	"context"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/notify"
	"repro/internal/report"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// Config controls world generation: Seed (determinism), Scale (1.0 = the
// paper's 135,408-hostname study) and ScanTime.
type Config = world.Config

// Study is a built world plus cached scans; see NewStudy.
type Study = core.Study

// Experiment regenerates one table or figure; see Experiments.
type Experiment = core.Experiment

// ScanResult is the outcome of probing one hostname.
type ScanResult = scanner.Result

// ResultSet is an indexed scan corpus: the raw results plus the category,
// country, issuer, key, hosting and rank indexes built in one pass. The
// study's dataset accessors (Worldwide, USAAll, ROK, Dataset) return one.
type ResultSet = resultset.Set

// Category buckets a scan result per the paper's Table 2.
type Category = scanner.Category

// World is the synthetic Internet.
type World = world.World

// DefaultConfig is the full-scale reproduction (135k+ hostnames; builds in
// a few seconds and uses a few hundred MB).
func DefaultConfig() Config { return world.DefaultConfig() }

// SmallConfig is a 2%-scale world: every population and error class is
// present, but everything runs in milliseconds. Ideal for exploration and
// tests.
func SmallConfig() Config { return world.TestConfig() }

// NewStudy builds the world for the configuration.
func NewStudy(cfg Config) (*Study, error) { return core.NewStudy(cfg) }

// MustNewStudy is NewStudy for known-valid configurations.
func MustNewStudy(cfg Config) *Study { return core.MustNewStudy(cfg) }

// Experiments lists the full table/figure registry (T1, T2, F1-F13,
// TA1-TA4, FA1-FA6, S533, S534, S722, E1-E8).
func Experiments() []Experiment { return core.Experiments() }

// RunExperiment regenerates one artifact by ID and returns its rendered
// text.
func RunExperiment(ctx context.Context, s *Study, id string) (string, error) {
	return core.RunExperiment(ctx, s, id)
}

// SuiteOptions is RunAllExperiments' options struct. It has no fields;
// pass SuiteOptions{}.
type SuiteOptions = core.SuiteOptions

// SuiteResult is one rendered artifact from RunAllExperiments.
type SuiteResult = core.SuiteResult

// RunAllExperiments regenerates the entire registry in order, stopping
// at the first error and returning the artifacts rendered before it.
func RunAllExperiments(ctx context.Context, s *Study, opts SuiteOptions) ([]SuiteResult, error) {
	return core.RunAllExperiments(ctx, s, opts)
}

// ScanHosts probes an arbitrary hostname list against the study's world
// with the paper's scanning posture (3 retries, conservative trust store).
func ScanHosts(ctx context.Context, s *Study, hosts []string) []ScanResult {
	return s.Scanner().ScanAll(ctx, hosts)
}

// Summarize computes the Table 2 aggregate for a raw result slice (it
// indexes the slice first; prefer SummarizeSet when a ResultSet exists).
func Summarize(results []ScanResult) analysis.Table2 {
	return analysis.ComputeTable2(resultset.New(results, resultset.Options{}))
}

// SummarizeSet computes the Table 2 aggregate from an indexed scan.
func SummarizeSet(set *ResultSet) analysis.Table2 {
	return analysis.ComputeTable2(set)
}

// RenderSummary renders a Table 2 aggregate as text.
func RenderSummary(tab analysis.Table2) string { return report.Table2(tab) }

// Crawl runs the 7-level dataset-expansion crawl from the study's seed
// list and returns the discovered hosts plus per-level statistics.
func Crawl(ctx context.Context, s *Study) ([]string, crawler.Stats) {
	c := crawler.New(&crawler.WebFetcher{
		Dialer:   s.World.Net,
		Resolver: s.World.DNS,
		Vantage:  "lab",
	})
	return c.Crawl(ctx, s.World.SeedHosts)
}

// Disclose builds per-country vulnerability reports from a worldwide scan
// and runs the §7.2 notification campaign.
func Disclose(ctx context.Context, s *Study) *notify.CampaignResult {
	reports := notify.BuildReports(s.Worldwide(ctx), nil)
	return notify.Campaign(reports, s.Rand("disclosure"))
}

// FollowUp applies the §7.2.2 remediation model to the world (drawn from
// r, or the study's "remediation" stream when r is nil), re-scans, and
// reports notification effectiveness. The study's worldwide dataset
// reflects the remediated world afterwards.
func FollowUp(ctx context.Context, s *Study, r *rand.Rand) (notify.Effectiveness, error) {
	if r == nil {
		r = s.Rand("remediation")
	}
	before, after, _ := s.Remediate(ctx, r)
	return notify.MeasureEffectiveness(before, after)
}
