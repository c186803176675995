package repro_test

// Performance gates: the properties the design depends on, checked
// as plain tests, most over the shared benchmark study (bench_test.go)
// at benchScale(). govbench measures end to end; these only fail the build
// when a hot path regresses past its recorded bound. All of them skip
// under -race, whose detector drops sync.Pool items and instruments
// every access, so neither allocation counts nor timings mean anything
// there.

import (
	"context"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/observatory"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/serve/loadgen"
	"repro/internal/world"
)

const (
	// jsonExportAllocsBudget is the allocs per worldwide export of the
	// reflection-based exporter before the zero-copy rewrite: the
	// exporter must not regress back toward reflection encoding.
	jsonExportAllocsBudget = 18658
	// serveCachedAllocsBudget is the allocations allowed per cached
	// serve request at clients=1 (about 8.0 when the gate was set): the
	// margin is for noise, not for a reflection- or map-allocating
	// regression on the hit path.
	serveCachedAllocsBudget = 10.0
	// ApplyDelta with applyDeltaK dirty hosts must beat the full rebuild
	// by applyDeltaMinSpeedup: that margin is the reason
	// dataset.Registry.patch reroutes through the delta at all.
	applyDeltaK          = 100
	applyDeltaMinSpeedup = 5.0
	applyDeltaRuns       = 7
	// renewalFleetAllocsBudget bounds the allocations per order attempt
	// of the chaos campaign at renewalFleetScale, midway between the two
	// wire designs measured when the gate was set: a dial per ACME POST,
	// reflection JSON, a base64 chain and per-message header maps cost
	// 152.7; kept-alive connections, append-built codecs, the raw chain
	// download and fixed-field headers cost 90.3.
	renewalFleetAllocsBudget = 120
	renewalFleetScale        = 0.01
	// suiteDialsBudget bounds the simnet dials of one experiment suite on
	// a fresh world.TestConfig() study, between the two designs measured
	// when the gate was set: follow-up scans that re-probe the whole
	// worldwide corpus cost 66,037 dials; follow-ups that re-probe only
	// the hosts remediation changed (and hosts behind transient faults)
	// cost 41,445.
	suiteDialsBudget = 50000
	// observatoryRetentionBudget bounds the live-heap growth of one
	// observatory run per rescanned host, in KB, between the two designs
	// measured when the gate was set over 18,808 rescans: rescans through
	// process-lifetime verify and chain caches retained 1.87 KB per
	// rescan, cache-free rescans 0.72 KB.
	observatoryRetentionBudget = 1.2
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items and inflates allocations and timings")
	}
}

// TestGateJSONExportAllocs bounds the allocations of one zgrab-style
// JSONL export of the worldwide set.
func TestGateJSONExportAllocs(t *testing.T) {
	skipUnderRace(t)
	results := study(t).Worldwide(context.Background()).Results()
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if e := scanner.WriteJSONL(io.Discard, results); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("JSONExport: %.0f allocs/op over %d hosts (budget %d)", allocs, len(results), jsonExportAllocsBudget)
	if allocs > jsonExportAllocsBudget {
		t.Errorf("JSONExport allocs/op regressed: %.0f > budget %d", allocs, jsonExportAllocsBudget)
	}
}

// TestGateServeCachedAllocs bounds the allocations per request of the
// cached query mix at one client, the steady state the read-through
// cache exists for.
func TestGateServeCachedAllocs(t *testing.T) {
	skipUnderRace(t)
	serveBench(t)
	warmServe(t, serveBenchCached, serveBenchQueryMix)
	errs := 0
	allocs := testing.AllocsPerRun(5, func() {
		errs += loadgen.Run(loadgen.Config{
			Handler: serveBenchCached.Handler(), Clients: 1, Requests: serveBenchRequests,
			Seed: 42, Paths: serveBenchQueryMix,
		}).Errors
	})
	if errs != 0 {
		t.Fatalf("load runs saw %d non-2xx responses", errs)
	}
	perReq := allocs / serveBenchRequests
	t.Logf("cached serve: %.0f allocs / %d req = %.2f allocs/req (budget %.1f)",
		allocs, serveBenchRequests, perReq, serveCachedAllocsBudget)
	if perReq > serveCachedAllocsBudget {
		t.Errorf("cached serve query allocates %.2f per request at clients=1 (budget %.1f)",
			perReq, serveCachedAllocsBudget)
	}
}

// TestGateApplyDelta compares the median of interleaved ApplyDelta and
// full-rebuild runs over the same base set and applyDeltaK changed rows.
// Each run starts from a collected heap, so neither side is billed for
// the other's garbage.
// Set GOVHTTPS_BENCH_SCALE=1.0 to check it on the full-study corpus.
func TestGateApplyDelta(t *testing.T) {
	skipUnderRace(t)
	base, changed := benchDeltaBase(t, applyDeltaK)
	raw := base.Results()
	opts := resultset.Options{CountryOf: study(t).CountryOf}
	timed := func(build func() (*resultset.Set, error)) time.Duration {
		runtime.GC()
		start := time.Now()
		set, err := build()
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() != base.Len() {
			t.Fatalf("patched set has %d rows, want %d", set.Len(), base.Len())
		}
		return d
	}
	var delta, rebuild []time.Duration
	for i := 0; i < applyDeltaRuns; i++ {
		delta = append(delta, timed(func() (*resultset.Set, error) { return base.ApplyDelta(changed) }))
		rebuild = append(rebuild, timed(func() (*resultset.Set, error) { return rebuildPatched(raw, changed, opts), nil }))
	}
	slices.Sort(delta)
	slices.Sort(rebuild)
	d, r := delta[applyDeltaRuns/2], rebuild[applyDeltaRuns/2]
	speedup := float64(r) / float64(d)
	t.Logf("%d hosts, k=%d: ApplyDelta median %v, rebuild median %v (%.1fx, need %.1fx)",
		base.Len(), applyDeltaK, d, r, speedup, applyDeltaMinSpeedup)
	if speedup < applyDeltaMinSpeedup {
		t.Errorf("ApplyDelta k=%d is only %.2fx the full rebuild over %d hosts (need >= %.1fx)",
			applyDeltaK, speedup, base.Len(), applyDeltaMinSpeedup)
	}
}

// TestGateRenewalFleetAllocs bounds the allocations per order attempt of
// the renewal fleet: the seed-42 default-chaos campaign BenchmarkRenewalFleet
// runs, at a fixed small scale. The best of three fresh campaigns counts,
// so a stray background allocation cannot fail the gate.
func TestGateRenewalFleetAllocs(t *testing.T) {
	skipUnderRace(t)
	best := 0.0
	for i := 0; i < 3; i++ {
		f := chaosFleet(t, renewalFleetScale)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := f.Run(context.Background())
		runtime.ReadMemStats(&after)
		attempts := rep.Final().Attempts
		if attempts == 0 {
			t.Fatal("campaign made no order attempts")
		}
		perAttempt := float64(after.Mallocs-before.Mallocs) / float64(attempts)
		if i == 0 || perAttempt < best {
			best = perAttempt
		}
		if i == 0 {
			t.Logf("%d attempts, %d renewals", attempts, rep.Final().Renewals)
		}
	}
	t.Logf("renewal fleet: %.1f allocs per order attempt (budget %d)", best, renewalFleetAllocsBudget)
	if best > renewalFleetAllocsBudget {
		t.Errorf("renewal fleet allocates %.1f per order attempt (budget %d)", best, renewalFleetAllocsBudget)
	}
}

// TestGateSuiteDials bounds the work of one full experiment suite by the
// simnet dials it makes, and requires the count to be reproducible: the
// world-mutating experiments must pay for the hosts their mutation
// touched, not for the whole corpus.
func TestGateSuiteDials(t *testing.T) {
	skipUnderRace(t)
	var dials [2]int64
	for i := range dials {
		s := core.MustNewStudy(world.TestConfig())
		before := s.World.Net.DialCount()
		if _, err := core.RunAllExperiments(context.Background(), s, core.SuiteOptions{}); err != nil {
			t.Fatal(err)
		}
		dials[i] = s.World.Net.DialCount() - before
	}
	t.Logf("experiment suite: %d simnet dials (budget %d)", dials[0], suiteDialsBudget)
	if dials[0] != dials[1] {
		t.Errorf("two suites on the same config dialed %d and %d times", dials[0], dials[1])
	}
	if dials[0] > suiteDialsBudget {
		t.Errorf("experiment suite made %d simnet dials (budget %d)", dials[0], suiteDialsBudget)
	}
}

// TestGateObservatoryRetention bounds what a long observatory run keeps
// alive: the live heap after Run, less the live heap before it, per
// rescanned host. Memory must follow the corpus, not the horizon.
func TestGateObservatoryRetention(t *testing.T) {
	skipUnderRace(t)
	ctx := context.Background()
	w := world.MustBuild(world.TestConfig())
	sc := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	base := resultset.New(sc.ScanAll(ctx, w.GovHosts), resultset.Options{CountryOf: w.CountryOf})
	o := observatory.New(w, base, observatory.Config{
		Seed:         1,
		Horizon:      240 * 24 * time.Hour,
		Tick:         12 * time.Hour,
		ChurnPerTick: 100,
	})
	before := liveHeap()
	rep, err := o.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(o)
	rescans := rep.TotalScanned()
	if rescans == 0 {
		t.Fatal("observatory rescanned nothing")
	}
	perHost := (float64(after) - float64(before)) / 1e3 / float64(rescans)
	t.Logf("observatory: live heap %.1f -> %.1f MB over %d rescans = %.2f KB per rescan (budget %.1f)",
		float64(before)/1e6, float64(after)/1e6, rescans, perHost, observatoryRetentionBudget)
	if perHost > observatoryRetentionBudget {
		t.Errorf("observatory retains %.2f KB per rescanned host (budget %.1f)", perHost, observatoryRetentionBudget)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
