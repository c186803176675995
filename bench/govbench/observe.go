package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"time"

	"repro/internal/observatory"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// Observatory shape: 240 virtual days at 12-hour ticks with 400 hosts of
// background churn drawn per tick. About a fifth of the draws flip a
// redirect (non-fresh churn), which outruns the token bucket's default
// refill of 32 a tick, so rescans get deferred and the bucket is
// exercised at any scale.
const (
	observeHorizon = 240 * 24 * time.Hour
	observeTick    = 12 * time.Hour
	observeChurn   = 400
)

// runObserve runs the continuous observatory. Set-up is the world build,
// the baseline ScanAll, its resultset.New index and observatory.New; the
// operation is one Observatory.Run over the horizon. Run churns the
// world, so every iteration builds its own.
func runObserve(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	scale := cfg.scaleOr(0.1)
	wcfg := world.Config{Seed: cfg.Seed, Scale: scale}
	ocfg := observatory.Config{
		Seed:         cfg.Seed,
		Horizon:      observeHorizon,
		Tick:         observeTick,
		ChurnPerTick: observeChurn,
	}
	out := &outcome{}
	var (
		obs                  layerObs
		rescans, deferred    int
		backlog              []float64
		freshD, churnD, ctEs int
	)
	for i := 0; cfg.more(i, out.Measured); i++ {
		setup := tr.begin("setup", 0)
		collectPrevious(i)
		t0 := clock.Now()
		rt0 := readRuntime()
		sp := tr.begin("world.build", setup.id())
		w, err := world.Build(wcfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		obs.worldAlloc = append(obs.worldAlloc, rt0.since().AllocBytes/1e6)
		sc := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
		sp = tr.begin("scanner.baseline", setup.id())
		raw := sc.ScanAll(ctx, w.GovHosts)
		sp.end()
		baselineS := sp.seconds()
		sp = tr.begin("resultset.build", setup.id())
		base := resultset.New(raw, resultset.Options{CountryOf: w.CountryOf})
		sp.end()
		sp = tr.begin("observatory.new", setup.id())
		o := observatory.New(w, base, ocfg)
		sp.end()
		out.Setups = append(out.Setups, clock.Now().Sub(t0).Seconds())
		setup.end()

		op := tr.begin("observatory.run", 0)
		rt0 = readRuntime()
		t0 = clock.Now()
		rep, err := o.Run(ctx)
		d := clock.Now().Sub(t0).Seconds()
		rt := rt0.since()
		op.end()
		out.Measured += d
		out.Attempted++
		if err != nil {
			out.Ops = append(out.Ops, inf)
			out.Failed++
			out.Failures = append(out.Failures, "observatory run: "+err.Error())
			continue
		}
		out.Ops = append(out.Ops, d)
		out.OK++

		chk := tr.begin("check", 0)
		sum := sha256.Sum256(rep.Bytes())
		digest := hex.EncodeToString(sum[:])
		if out.Digest == "" {
			out.Digest = digest
			if want, ok := goldenDigest("observe", cfg.Seed, scale); ok {
				out.check(digest == want, "observatory report sha256 %s, recorded %s", digest, want)
			}
		} else {
			out.check(digest == out.Digest, "iteration %d report differs from iteration 0", i)
		}
		// The set patched tick by tick through ApplyDelta must equal a
		// from-scratch index build over its own rows.
		final := o.Set()
		rebuilt := resultset.New(final.Results(), resultset.Options{CountryOf: w.CountryOf})
		out.check(final.Counts() == rebuilt.Counts() && rep.FinalCounts == rebuilt.Counts(),
			"iteration %d: patched counts %+v, rebuilt %+v", i, final.Counts(), rebuilt.Counts())
		out.check(reflect.DeepEqual(final.CountryAggs(), rebuilt.CountryAggs()),
			"iteration %d: patched per-country aggregates differ from a rebuild", i)
		chk.end()

		if tr == nil {
			continue
		}
		obs.runtime = obs.runtime.plus(rt)
		obs.scanned(base, baselineS)
		obs.caches(sc.Cfg)
		rescans += rep.TotalScanned()
		backlog = append(backlog, float64(rep.Final().Deferred))
		for _, t := range rep.Ticks {
			deferred += t.Deferred
			freshD += t.FreshDirty
			churnD += t.ChurnDirty
			ctEs += t.CTEntries
		}
	}
	if tr == nil || out.OK == 0 {
		return out, nil
	}

	spans := tr.snapshot()
	iters := float64(out.OK)
	out.Layers = obs.common(spans, "scanner.baseline", out)
	out.Extra = []metric{
		{"observatory.rescans", float64(rescans) / iters, "count"},
		{"observatory.rescans_per_s", float64(rescans) / out.Measured, "1/s"},
		{"observatory.deferred", float64(deferred) / iters, "count"},
		{"observatory.backlog_end", medianOf(backlog), "count"},
		{"observatory.fresh_dirty", float64(freshD) / iters, "count"},
		{"observatory.churn_dirty", float64(churnD) / iters, "count"},
		{"observatory.ct_entries", float64(ctEs) / iters, "count"},
		{"observatory.new_s", medianOf(spanDurations(spans, "observatory.new")), "s"},
	}
	return out, nil
}
