package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/notify"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/stats"
)

func TestFigure1Rendering(t *testing.T) {
	rows := []analysis.CountryRow{
		{Country: "us", Hosts: 100, Available: 100, HTTPS: 80, Valid: 70},
		{Country: "kr", Hosts: 50, Available: 48, HTTPS: 30, Valid: 12},
		{Country: "zz", Hosts: 10, Available: 5, HTTPS: 1, Valid: 0},
	}
	out := Figure1(rows, 2)
	if !strings.Contains(out, "United States") {
		t.Error("country name not resolved")
	}
	if !strings.Contains(out, "South Korea") {
		t.Error("second row missing")
	}
	if strings.Contains(out, "zz") {
		t.Error("topN truncation ignored")
	}
}

func TestKeyAlgoRendering(t *testing.T) {
	m := analysis.KeyAlgoMatrix{
		ByHostKey: []analysis.KeyCell{{Label: "RSA-2048", Total: 10, Valid: 7}},
		BySigAlgo: []analysis.KeyCell{{Label: "sha256WithRSAEncryption", Total: 10, Valid: 7}},
		Combined:  []analysis.KeyCell{{Label: "RSA-2048 / sha256WithRSAEncryption", Total: 10, Valid: 7}},
	}
	out := KeyAlgo("Figure 4: test", m)
	for _, want := range []string{"Host public key", "CA signing algorithm", "RSA-2048", "70.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("KeyAlgo missing %q", want)
		}
	}
}

func TestDurationsRendering(t *testing.T) {
	day := 24 * time.Hour
	d := analysis.DurationStats{
		ValidLifetimes:   []time.Duration{90 * day, 365 * day},
		InvalidLifetimes: []time.Duration{3650 * day, 100 * 365 * day},
		InvalidUnder2y:   0,
		InvalidOver3y:    2,
		Mult365:          2,
		Decades:          map[int]int{10: 1, 100: 1},
		EpochCerts:       1,
	}
	out := Durations("Figure 3: test", d)
	for _, want := range []string{"Issued for exactly 10y", "Unix-epoch issue dates", "36500"} {
		if !strings.Contains(out, want) {
			t.Errorf("Durations missing %q:\n%s", want, out)
		}
	}
}

func TestHostingRendering(t *testing.T) {
	out := Hosting("Figure 5: test", []analysis.HostingBucket{
		{Label: "Cloud", Total: 100, HTTPS: 80, Valid: 60},
		{Label: "Private", Total: 1000, HTTPS: 300, Valid: 250},
	})
	if !strings.Contains(out, "Cloud") || !strings.Contains(out, "60.0") {
		t.Errorf("Hosting render:\n%s", out)
	}
}

func rankSeries(name string, rate float64) analysis.RankSeries {
	fit, _ := stats.FitLinear([]float64{1, 2, 3, 4}, []float64{1, 0, 1, 0})
	return analysis.RankSeries{
		Name: name, N: 100, MeanRank: 500, StdRank: 100, ValidRate: rate,
		Bins: []stats.Bin{{Center: 100, Count: 10, Rate: rate}},
		Fit:  fit,
		Hosting: []analysis.HostingBucket{
			{Label: "Cloud", Total: 20, Valid: 15},
			{Label: "CDN", Total: 10, Valid: 8},
			{Label: "Private", Total: 70, Valid: 20},
		},
	}
}

func TestRankComparisonRendering(t *testing.T) {
	rc := analysis.RankComparison{
		Gov:       rankSeries("government", 0.3),
		Random:    rankSeries("uniform", 0.55),
		Matched:   rankSeries("matched", 0.56),
		TopNonGov: rankSeries("top", 0.7),
	}
	out := RankComparison(rc)
	for _, want := range []string{"Figure 7", "Figure 6", "government", "Slope/100k"} {
		if !strings.Contains(out, want) {
			t.Errorf("RankComparison missing %q", want)
		}
	}
	bins := RankBins(rc)
	if !strings.Contains(bins, "Bin center") || !strings.Contains(bins, "30.0") {
		t.Errorf("RankBins:\n%s", bins)
	}
}

func TestKeyReuseRendering(t *testing.T) {
	s := analysis.KeyReuseStats{
		Clusters:          make([]analysis.ReuseCluster, 5),
		CrossCountry:      make([]analysis.ReuseCluster, 2),
		CrossCountryHosts: 12,
		ByCountrySpan:     map[int]int{2: 1, 24: 1},
	}
	out := KeyReuse(s)
	for _, want := range []string{"Section 5.3.3", "Certificates shared by 24 countries", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("KeyReuse missing %q:\n%s", want, out)
		}
	}
}

func TestCrossGovRendering(t *testing.T) {
	out := CrossGov(analysis.CrossGovStats{
		OutDegree:            map[string]int{"at": 70, "br": 10},
		ShareLinkingAtLeast7: 0.75,
		HeavilyLinked:        1,
		TopLinker:            "at",
		TopLinkerDegree:      70,
	})
	for _, want := range []string{"Figure A.5", "at", "75.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("CrossGov missing %q:\n%s", want, out)
		}
	}
}

func TestCampaignRendering(t *testing.T) {
	c := &notify.CampaignResult{
		Reports:    []notify.Report{{Country: "br"}},
		EmailsSent: 1, Delivered: 1, Supportive: 1,
		Deliveries: map[string]notify.Delivery{
			"br": {Delivered: true, Response: notify.Redirected},
		},
		SkippedAllValid:    []string{"no"},
		SkippedTerritories: []string{"pr"},
	}
	out := Campaign(c)
	for _, want := range []string{"Section 7.2", "Figure 13", "Supportive responses", "Population rank band"} {
		if !strings.Contains(out, want) {
			t.Errorf("Campaign missing %q", want)
		}
	}
}

func TestDatasetsRendering(t *testing.T) {
	out := Datasets("Table A.1: test", []DatasetBreakdown{
		{Name: "Govt. State Only Domains", Tab: analysis.Table2{Total: 827, HTTPOnly: 203, HTTPS: 561, Valid: 406, Invalid: 155, Unavailable: 63}},
	})
	for _, want := range []string{"Govt. State Only Domains", "827", "406"} {
		if !strings.Contains(out, want) {
			t.Errorf("Datasets missing %q", want)
		}
	}
}

func TestEVRendering(t *testing.T) {
	out := EV(analysis.EVStats{Hosts: 21, Analyzed: 500, Valid: 17})
	if !strings.Contains(out, "4.20%") {
		t.Errorf("EV render:\n%s", out)
	}
}

func TestScanSummaryLine(t *testing.T) {
	results := resultset.New([]scanner.Result{
		{Hostname: "a.gov", Available: true, ServesHTTP: true},
	}, resultset.Options{})
	out := Scan(results, 1500*time.Millisecond)
	if !strings.Contains(out, "scanned 1 hosts") || !strings.Contains(out, "1.5s") {
		t.Errorf("Scan line: %q", out)
	}
}

func TestTable2WithTitle(t *testing.T) {
	out := Table2WithTitle("Custom Title", analysis.Table2{Total: 1, HTTPOnly: 1, ByCategory: map[scanner.Category]int{}})
	if !strings.Contains(out, "Custom Title") {
		t.Error("custom title missing")
	}
	if strings.Contains(out, "Table 2: Worldwide govt.") {
		t.Error("canonical heading not replaced")
	}
}
