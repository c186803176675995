package govhttps

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resultset"
	"repro/internal/scanner"
)

var study = MustNewStudy(SmallConfig())

func TestPublicAPIQuickstart(t *testing.T) {
	ctx := context.Background()
	out, err := RunExperiment(ctx, study, "T2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Valid HTTPS Certificates") {
		t.Errorf("T2 output:\n%s", out)
	}
}

func TestScanAndSummarize(t *testing.T) {
	ctx := context.Background()
	hosts := study.World.GovHosts[:200]
	results := ScanHosts(ctx, study, hosts)
	if len(results) != 200 {
		t.Fatalf("results = %d", len(results))
	}
	tab := Summarize(results)
	if tab.Total == 0 || tab.HTTPS == 0 {
		t.Errorf("summary = %+v", tab)
	}
	if !strings.Contains(RenderSummary(tab), "Table 2") {
		t.Error("render missing heading")
	}
}

func TestExperimentsListed(t *testing.T) {
	if len(Experiments()) != 36 {
		t.Errorf("experiments = %d, want 36", len(Experiments()))
	}
}

func TestRunAllExperimentsViaFacade(t *testing.T) {
	// Use a private study: the suite includes world-mutating experiments.
	s := MustNewStudy(SmallConfig())
	results, err := RunAllExperiments(context.Background(), s, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Experiments()) {
		t.Fatalf("results = %d, want %d", len(results), len(Experiments()))
	}
	for i, e := range Experiments() {
		if results[i].ID != e.ID {
			t.Fatalf("result %d = %s, want %s (registry order)", i, results[i].ID, e.ID)
		}
		if results[i].Output == "" {
			t.Errorf("%s rendered empty", e.ID)
		}
	}
}

func TestCrawlViaFacade(t *testing.T) {
	hosts, stats := Crawl(context.Background(), study)
	if len(hosts) <= len(study.World.SeedHosts) {
		t.Error("crawl did not expand the seed list")
	}
	if len(stats.Levels) < 3 {
		t.Error("crawl stats missing levels")
	}
}

func TestDiscloseAndFollowUp(t *testing.T) {
	// Use a private study: FollowUp mutates the world.
	s := MustNewStudy(Config{Seed: 21, Scale: 0.01})
	ctx := context.Background()
	c := Disclose(ctx, s)
	if c.EmailsSent == 0 {
		t.Fatal("no disclosure emails")
	}
	eff, err := FollowUp(ctx, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.PreviouslyInvalid == 0 || eff.Fixed == 0 {
		t.Errorf("effectiveness = %+v", eff)
	}

	// FollowUp mutated the world; the worldwide dataset must now be that
	// world's, as a plain rescan at the study scan time sees it.
	cfg := scanner.DefaultConfig(s.Store(), s.World.ScanTime)
	raw := scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg).ScanAll(ctx, s.World.GovHosts)
	want := resultset.New(raw, resultset.Options{CountryOf: s.World.CountryOf})
	got := s.Worldwide(ctx)
	if !reflect.DeepEqual(got.Results(), want.Results()) || got.Counts() != want.Counts() {
		t.Errorf("worldwide after FollowUp is stale: counts %+v, rescan %+v", got.Counts(), want.Counts())
	}
}
