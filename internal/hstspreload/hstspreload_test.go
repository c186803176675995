package hstspreload_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/hstspreload"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

var (
	testWorld = world.MustBuild(world.TestConfig())
	cached    *resultset.Set
)

func results(t *testing.T) *resultset.Set {
	t.Helper()
	if cached == nil {
		s := scanner.New(testWorld.Net, testWorld.DNS, testWorld.Class,
			scanner.DefaultConfig(testWorld.Stores["apple"], testWorld.ScanTime))
		cached = resultset.New(s.ScanAll(context.Background(), testWorld.GovHosts), resultset.Options{})
	}
	return cached
}

func TestListCoverage(t *testing.T) {
	l := hstspreload.NewList()
	l.Add("gov")
	l.Add(".go.kr")
	cases := map[string]bool{
		"nih.gov":          true,
		"deep.sub.nih.gov": true,
		"minwon.go.kr":     true,
		"nih.gov.br":       false, // .gov.br is not .gov
		"nihgov":           false,
		"example.com":      false,
	}
	for host, want := range cases {
		if got := l.Covers(host); got != want {
			t.Errorf("Covers(%q) = %v, want %v", host, got, want)
		}
	}
}

func TestEligibility(t *testing.T) {
	found := map[bool]bool{}
	set := results(t)
	for i := 0; i < set.Len(); i++ {
		r := set.At(i)
		e := hstspreload.CheckEligibility(r)
		if e.Eligible {
			if !r.ValidHTTPS() || !r.HSTS {
				t.Fatalf("%s eligible without meeting the bar", r.Hostname)
			}
		} else if len(e.Missing) == 0 {
			t.Fatalf("%s ineligible with no missing requirements", r.Hostname)
		}
		found[e.Eligible] = true
	}
	if !found[true] || !found[false] {
		t.Error("world lacks a mix of eligible and ineligible hosts")
	}
}

func TestEligibleHostsSorted(t *testing.T) {
	hosts := hstspreload.EligibleHosts(results(t))
	if len(hosts) == 0 {
		t.Fatal("no eligible hosts")
	}
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1] >= hosts[i] {
			t.Fatal("eligible hosts unsorted")
		}
	}
}

func TestSimulateDotGovPreload(t *testing.T) {
	// The 2020 DotGov decision: preload the whole .gov suffix. The
	// simulation shows how many sites the mandate would cut off.
	imp := hstspreload.SimulateImpact("gov", results(t))
	if imp.Covered == 0 {
		t.Fatal("no .gov hosts covered")
	}
	if imp.Ready+imp.WouldBreak > imp.Covered {
		t.Fatalf("accounting broken: %+v", imp)
	}
	// The US .gov population is ~80% valid, so preloading is mostly safe
	// but visibly breaks the rest.
	if imp.ReadyPct() < 60 || imp.ReadyPct() > 97 {
		t.Errorf("ready pct = %.1f, want ~80", imp.ReadyPct())
	}
	if imp.WouldBreak == 0 {
		t.Error("preload shows no breakage; the long tail should break")
	}
	for _, h := range imp.Breakage {
		if !strings.HasSuffix(h, ".gov") && h != "gov" {
			t.Fatalf("breakage outside suffix: %s", h)
		}
	}
}

func TestSimulateLowReadinessSuffix(t *testing.T) {
	// Preloading a struggling government's suffix breaks most of it —
	// the reason §8.2's recommendation needs the certificate fixes first.
	impCN := hstspreload.SimulateImpact("gov.cn", results(t))
	impGov := hstspreload.SimulateImpact("gov", results(t))
	if impCN.Covered == 0 {
		t.Skip("no gov.cn hosts at this scale")
	}
	if impCN.ReadyPct() >= impGov.ReadyPct() {
		t.Errorf("gov.cn readiness (%.1f%%) should trail .gov (%.1f%%)",
			impCN.ReadyPct(), impGov.ReadyPct())
	}
}
