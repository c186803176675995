package observatory_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/observatory"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

func obsOptions(w *world.World) resultset.Options {
	return resultset.Options{CountryOf: w.CountryOf}
}

// runObservatory builds a private world, takes the baseline scan, and
// runs one churn-driven observatory loop at the given worker count.
func runObservatory(t *testing.T, workers int) (*observatory.Report, *observatory.Observatory, *world.World) {
	t.Helper()
	w := world.MustBuild(world.TestConfig())
	s := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	raw := s.ScanAll(context.Background(), w.GovHosts)
	base := resultset.New(raw, obsOptions(w))

	o := observatory.New(w, base, observatory.Config{
		Seed:          1234,
		Tick:          6 * time.Hour,
		Horizon:       60 * time.Hour, // 10 ticks + tick 0
		Workers:       workers,
		SnapshotEvery: 3,
		ChurnPerTick:  6,
		RefillPerTick: 4,
		Burst:         8,
	})
	rep, err := o.Run(context.Background())
	if err != nil {
		t.Fatalf("observatory run: %v", err)
	}
	return rep, o, w
}

// TestObservatoryDeterministicAcrossWorkers is the acceptance check: two
// same-seed runs at different worker counts must produce byte-identical
// report streams — the acmefleet determinism contract applied to the
// observatory loop.
func TestObservatoryDeterministicAcrossWorkers(t *testing.T) {
	rep1, _, _ := runObservatory(t, 1)
	rep16, _, _ := runObservatory(t, 16)

	b1, b16 := rep1.Bytes(), rep16.Bytes()
	if !bytes.Equal(b1, b16) {
		t.Fatalf("report streams diverge across worker counts:\n--- workers=1 ---\n%s\n--- workers=16 ---\n%s", b1, b16)
	}
	if rep1.TotalScanned() == 0 {
		t.Fatal("observatory re-scanned nothing; churn did not propagate")
	}
}

func TestObservatoryLoopShape(t *testing.T) {
	rep, o, w := runObservatory(t, 8)

	if got, want := len(rep.Ticks), 11; got != want {
		t.Fatalf("ticks = %d, want %d", got, want)
	}
	// Snapshots at ticks 0,3,6,9 plus the forced final tick 10.
	if got, want := len(rep.Trajectory.Points), 5; got != want {
		t.Fatalf("trajectory points = %d, want %d", got, want)
	}
	for i, stat := range rep.Ticks {
		if stat.Tick != i {
			t.Fatalf("tick %d numbered %d", i, stat.Tick)
		}
		want := o.Cfg.Start.Add(time.Duration(i) * o.Cfg.Tick)
		if !stat.Time.Equal(want) {
			t.Fatalf("tick %d at %v, want nominal %v", i, stat.Time, want)
		}
	}

	// The population is fixed: deltas patch rows, never grow the corpus.
	if got := o.Set().Len(); got != rep.Corpus || got != len(w.GovHosts) {
		t.Fatalf("set len = %d, corpus = %d, govhosts = %d", got, rep.Corpus, len(w.GovHosts))
	}
	if c := rep.FinalCounts; c.Total != rep.Corpus {
		t.Fatalf("final counts total = %d, corpus = %d", c.Total, rep.Corpus)
	}

	// Churn must have dirtied hosts through both tails, and every
	// rotation-dirtied host re-scans at fresh priority.
	var fresh, churn, ct, ev int
	for _, stat := range rep.Ticks {
		fresh += stat.FreshDirty
		churn += stat.ChurnDirty
		ct += stat.CTEntries
		ev += stat.Events
	}
	if fresh == 0 {
		t.Fatal("no fresh-certificate hosts dirtied; CT tail not flowing")
	}
	if ct == 0 || ev == 0 {
		t.Fatalf("tails stalled: ct=%d events=%d", ct, ev)
	}

	// The patched set must reflect the world's current serving state for
	// every host the loop re-scanned (spot-check via ground truth: a
	// removed or flipped host cannot still carry its baseline category).
	if rep.TotalScanned() < fresh {
		t.Fatalf("scanned %d < fresh %d: fresh hosts must never be deferred", rep.TotalScanned(), fresh)
	}
}

// TestObservatoryDeltaMatchesGroundTruth re-scans the full corpus at the
// final tick time and checks the patched set agrees row-for-row on every
// host whose final-time scan matches its last observatory scan — in
// particular validity and availability for rotated hosts.
func TestObservatoryDeltaMatchesGroundTruth(t *testing.T) {
	rep, o, w := runObservatory(t, 4)
	_ = rep

	final := o.Cfg.Start.Add(o.Cfg.Horizon)
	s := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], final))
	truth := s.ScanAll(context.Background(), w.GovHosts)

	// Hosts the observatory scanned at earlier ticks can differ from the
	// final-time truth only through time passage (expiry). Availability
	// and scheme flips, though, are instant world state — they must
	// agree for any host the loop caught.
	mismatched := 0
	for _, tr := range truth {
		got, ok := o.Set().Lookup(tr.Hostname)
		if !ok {
			t.Fatalf("host %q missing from patched set", tr.Hostname)
		}
		if got.Available != tr.Available || got.ServesHTTP != tr.ServesHTTP {
			mismatched++
		}
	}
	// The token bucket legitimately defers churn past the horizon, so a
	// small tail of stale rows is expected — but the overwhelming bulk
	// of the corpus must be current.
	if limit := len(truth) / 20; mismatched > limit {
		t.Fatalf("%d of %d hosts stale in patched set (limit %d)", mismatched, len(truth), limit)
	}
}
