package longitudinal_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/longitudinal"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/world"
)

// walkTally is the per-row classification Tally replaced: Capture's
// per-host states, counted.
func walkTally(taken time.Time, set *resultset.Set) longitudinal.Point {
	p := longitudinal.Point{Taken: taken}
	for _, st := range longitudinal.Capture(taken, set).States {
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

// faultSpecs is one of every simnet failure mode, with truncations that
// cut the TLS handshake and the HTTP exchange at different points.
var faultSpecs = []simnet.FaultSpec{
	{Mode: simnet.FaultRefuse},
	{Mode: simnet.FaultTimeout},
	{Mode: simnet.FaultReset},
	{Mode: simnet.FaultFlaky, FailCount: 9},
	{Mode: simnet.FaultProb, Probability: 0.5},
	{Mode: simnet.FaultMidHandshake},
	{Mode: simnet.FaultTruncate, TruncateBytes: 0},
	{Mode: simnet.FaultTruncate, TruncateBytes: 4},
	{Mode: simnet.FaultTruncate, TruncateBytes: 9},
	{Mode: simnet.FaultTruncate, TruncateBytes: 200},
	{Mode: simnet.FaultTruncate, TruncateBytes: 1500},
}

// TestTallyMatchesStateWalk: Tally, read from the set's Table 2 counts,
// equals the per-row state walk on a faulted scan and along an
// ApplyDelta chain over churned rescans.
func TestTallyMatchesStateWalk(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 31, Scale: 0.02, Flakiness: 0.1})
	for i, h := range w.GovHosts {
		s := w.Sites[h]
		if i%5 != 0 || !s.IP.IsValid() {
			continue
		}
		spec := faultSpecs[(i/5)%len(faultSpecs)]
		port := uint16(443)
		if (i/5)%3 == 0 {
			port = 80
		}
		w.Net.SetFaultSpec(netip.AddrPortFrom(s.IP, port), spec)
	}
	cfg := scanner.DefaultConfig(w.Stores["apple"], w.ScanTime)
	scan := func(hosts []string) []scanner.Result {
		return scanner.New(w.Net, w.DNS, w.Class, cfg).ScanAll(context.Background(), hosts)
	}
	set := resultset.New(scan(w.GovHosts), resultset.Options{CountryOf: w.CountryOf})
	check := func(step string) {
		t.Helper()
		got, want := longitudinal.Tally(cfg.Now, set), walkTally(cfg.Now, set)
		if got != want {
			t.Fatalf("%s: Tally = %+v, state walk = %+v", step, got, want)
		}
	}
	check("faulted scan")
	if p := longitudinal.Tally(cfg.Now, set); p.Gone == 0 || p.HTTPOnly == 0 || p.Broken == 0 || p.Valid == 0 {
		t.Fatalf("state distribution degenerate: %+v", p)
	}

	rng := rand.New(rand.NewSource(5))
	for gen := 1; gen <= 12; gen++ {
		cfg.Now = cfg.Now.Add(30 * 24 * time.Hour)
		w.Clock.SetTime(cfg.Now)
		next, err := set.ApplyDelta(scan(w.ChurnTick(rng, cfg.Now, 60)))
		if err != nil {
			t.Fatal(err)
		}
		set = next
		check(fmt.Sprintf("delta generation %d", gen))
	}
}
