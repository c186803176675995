package longitudinal_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/longitudinal"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

func scanAll(w *world.World, at interface{ IsZero() bool }) *resultset.Set {
	s := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	return resultset.New(s.ScanAll(context.Background(), w.GovHosts), resultset.Options{})
}

func TestCaptureStates(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 31, Scale: 0.01})
	snap := longitudinal.Capture(w.ScanTime, scanAll(w, nil))
	counts := map[longitudinal.State]int{}
	for _, st := range snap.States {
		counts[st]++
	}
	if counts[longitudinal.ValidHTTPS] == 0 || counts[longitudinal.HTTPOnly] == 0 || counts[longitudinal.BrokenHTTPS] == 0 {
		t.Fatalf("state distribution degenerate: %v", counts)
	}
}

func TestDiffAfterRemediation(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 32, Scale: 0.01})
	before := longitudinal.Capture(w.ScanTime, scanAll(w, nil))

	// Apply the §7.2.2 churn and re-scan.
	var invalid []string
	for host, st := range before.States {
		if st == longitudinal.BrokenHTTPS {
			invalid = append(invalid, host)
		}
	}
	w.Remediate(invalid, world.DefaultRemediationRates(), rand.New(rand.NewSource(1)))
	after := longitudinal.Capture(world.FollowUpScanTime, scanAll(w, nil))

	c := longitudinal.Diff(before, after)
	if len(c.Improved) == 0 {
		t.Fatal("no improvements after remediation")
	}
	if c.Steady == 0 {
		t.Fatal("no steady hosts")
	}
	for _, tr := range c.Improved {
		if !tr.Improved() {
			t.Fatalf("transition %+v in Improved but not improved", tr)
		}
	}
	if !strings.Contains(c.Summary(), "improved") {
		t.Error("summary malformed")
	}
}

func TestDiffAppearDisappear(t *testing.T) {
	before := longitudinal.Snapshot{States: map[string]longitudinal.State{
		"a.gov": longitudinal.ValidHTTPS,
		"b.gov": longitudinal.HTTPOnly,
	}}
	after := longitudinal.Snapshot{States: map[string]longitudinal.State{
		"a.gov": longitudinal.BrokenHTTPS, // regressed
		"c.gov": longitudinal.ValidHTTPS,  // appeared
	}}
	c := longitudinal.Diff(before, after)
	if len(c.Regressed) != 1 || c.Regressed[0].Hostname != "a.gov" {
		t.Errorf("regressed = %v", c.Regressed)
	}
	if len(c.Appeared) != 1 || c.Appeared[0] != "c.gov" {
		t.Errorf("appeared = %v", c.Appeared)
	}
	if len(c.Disappeared) != 1 || c.Disappeared[0] != "b.gov" {
		t.Errorf("disappeared = %v", c.Disappeared)
	}
}

func TestGapReport(t *testing.T) {
	snap := longitudinal.Snapshot{States: map[string]longitudinal.State{
		"good.gov":   longitudinal.ValidHTTPS,
		"broken.gov": longitudinal.BrokenHTTPS,
		"plain.gov":  longitudinal.HTTPOnly,
	}}
	gaps := longitudinal.GapReport(snap, longitudinal.ValidHTTPS)
	if len(gaps) != 2 || gaps[0] != "broken.gov" || gaps[1] != "plain.gov" {
		t.Errorf("gaps = %v", gaps)
	}
}

func TestStateOrdering(t *testing.T) {
	if !(longitudinal.Gone < longitudinal.HTTPOnly &&
		longitudinal.HTTPOnly < longitudinal.BrokenHTTPS &&
		longitudinal.BrokenHTTPS < longitudinal.ValidHTTPS) {
		t.Fatal("state ordering broken; Diff's improved/regressed logic depends on it")
	}
	if longitudinal.ValidHTTPS.String() != "valid-https" {
		t.Error("state naming wrong")
	}
}

// countStates is the reference tally: Capture's per-host states counted
// one by one.
func countStates(s longitudinal.Snapshot) longitudinal.Point {
	p := longitudinal.Point{Taken: s.Taken}
	for _, st := range s.States {
		switch st {
		case longitudinal.Gone:
			p.Gone++
		case longitudinal.HTTPOnly:
			p.HTTPOnly++
		case longitudinal.BrokenHTTPS:
			p.Broken++
		case longitudinal.ValidHTTPS:
			p.Valid++
		}
	}
	return p
}

// TestTallyMatchesCapture: Tally must count exactly the states Capture
// records, on a fresh set and on a delta generation whose changed rows
// sit in an overlay over the base rows.
func TestTallyMatchesCapture(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 33, Scale: 0.01})
	base := scanAll(w, nil)
	p0 := longitudinal.Tally(w.ScanTime, base)
	if want := countStates(longitudinal.Capture(w.ScanTime, base)); p0 != want {
		t.Fatalf("fresh set: Tally = %+v, Capture counts %+v", p0, want)
	}
	if p0.Total() != base.Len() {
		t.Fatalf("fresh set: Tally covers %d hosts, corpus has %d", p0.Total(), base.Len())
	}

	// Fix a handful of invalid hosts and rescan only those: a delta far
	// below ApplyDelta's 1/8 compaction trigger, so the generation reads
	// its changed rows through the overlay.
	out := w.Remediate(base.InvalidHosts(), world.DefaultRemediationRates(), rand.New(rand.NewSource(3)))
	changed := out.ChangedHosts()
	if limit := base.Len() / 16; len(changed) > limit {
		changed = changed[:limit]
	}
	if len(changed) == 0 {
		t.Fatal("remediation changed no hosts")
	}
	sc := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], world.FollowUpScanTime))
	next, err := base.ApplyDelta(sc.ScanAll(context.Background(), changed))
	if err != nil {
		t.Fatal(err)
	}
	p1 := longitudinal.Tally(world.FollowUpScanTime, next)
	if want := countStates(longitudinal.Capture(world.FollowUpScanTime, next)); p1 != want {
		t.Fatalf("delta generation: Tally = %+v, Capture counts %+v", p1, want)
	}
	if p1.Valid <= p0.Valid {
		t.Fatalf("delta generation tally %+v does not reflect the %d fixed hosts (base %+v)", p1, len(changed), p0)
	}
}
