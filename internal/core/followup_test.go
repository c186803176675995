package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// fullScan is the oracle the incremental follow-up and the lazy worldwide
// patch are checked against: a plain scanner over every GovHost at the
// given instant, indexed by resultset.New.
func fullScan(ctx context.Context, s *Study, now time.Time) *resultset.Set {
	cfg := scanner.DefaultConfig(s.Store(), now)
	raw := scanner.New(s.World.Net, s.World.DNS, s.World.Class, cfg).ScanAll(ctx, s.World.GovHosts)
	return resultset.New(raw, s.indexOptions())
}

// sameSet reports the first difference between two sets' rows and counts.
func sameSet(got, want *resultset.Set) error {
	g, w := got.Results(), want.Results()
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) {
			return fmt.Errorf("row %d (%s) differs:\n got  %+v\n want %+v", i, w[i].Hostname, g[i], w[i])
		}
	}
	if got.Counts() != want.Counts() {
		return fmt.Errorf("counts %+v, want %+v", got.Counts(), want.Counts())
	}
	return nil
}

// TestFollowUpMatchesFullRescan: the follow-up Remediate builds from the
// snapshot plus a partial re-probe equals a full rescan of the remediated
// world at the follow-up instant — for both remediation rounds the suite
// runs (S722, then E4 on the patched snapshot), on fault-free worlds and
// on a flaky one, where hosts behind transient faults must be re-probed
// because their attempt counts depend on dial history. The oracle study
// is built from the same config and replays the same mutations.
func TestFollowUpMatchesFullRescan(t *testing.T) {
	cfgs := []world.Config{
		{Seed: 1, Scale: 0.02},
		{Seed: 2, Scale: 0.02},
		{Seed: 3, Scale: 0.03},
		{Seed: 4, Scale: 0.02, Flakiness: 0.3},
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("seed%d_scale%g_flaky%g", cfg.Seed, cfg.Scale, cfg.Flakiness), func(t *testing.T) {
			ctx := context.Background()
			s, oracle := MustNewStudy(cfg), MustNewStudy(cfg)
			for _, label := range []string{"remediation", "longitudinal"} {
				_, got, outcome := s.Remediate(ctx, s.Rand(label))

				invalid := oracle.Worldwide(ctx).InvalidHosts()
				want := oracle.World.Remediate(invalid, world.DefaultRemediationRates(), oracle.Rand(label))
				if !reflect.DeepEqual(outcome, want) {
					t.Fatalf("%s: remediation outcome diverged from the oracle's", label)
				}
				oracle.MarkDatasetDirty("worldwide", want.ChangedHosts())
				if err := sameSet(got, fullScan(ctx, oracle, world.FollowUpScanTime)); err != nil {
					t.Fatalf("%s follow-up: %v", label, err)
				}
			}
		})
	}
}

// TestFleetReportLeavesWorldwidePatchLazy: once the campaign has run,
// repeat FleetReport calls and E7's fleet-corpus scan must not resolve
// worldwide, so the campaign's patch stays pending until a worldwide
// reader asks for it. That reader then gets the post-campaign world.
func TestFleetReportLeavesWorldwidePatchLazy(t *testing.T) {
	s := MustNewStudy(world.TestConfig())
	ctx := context.Background()
	rep, _, err := s.FleetReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ChangedHosts()) == 0 {
		t.Fatal("campaign rotated no certificates")
	}
	if _, _, err := s.FleetReport(ctx); err != nil {
		t.Fatal(err)
	}
	s.scanFleetCorpus(ctx, rep)
	for _, g := range s.Registry().Generations() {
		if g.Name == "worldwide" && (g.Cached || g.Dirty == 0) {
			t.Fatalf("worldwide after the campaign: %+v, want a pending patch", g)
		}
	}
	if err := sameSet(s.Worldwide(ctx), fullScan(ctx, s, s.World.ScanTime)); err != nil {
		t.Fatal(err)
	}
}
