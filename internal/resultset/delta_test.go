package resultset_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// deltaWorld builds a private world for the delta tests so mutating it
// cannot disturb the shared testWorld fixtures.
func deltaWorld(t *testing.T) *world.World {
	t.Helper()
	return world.MustBuild(world.TestConfig())
}

func scanHosts(w *world.World, hosts []string, at scanner.Config) []scanner.Result {
	s := scanner.New(w.Net, w.DNS, w.Class, at)
	return s.ScanAll(context.Background(), hosts)
}

func deltaOptions(w *world.World) resultset.Options {
	rankOf := func(h string) (int, bool) {
		for _, rh := range w.TopLists.TrancoGov {
			if rh.Host == h {
				return rh.Rank, true
			}
		}
		return 0, false
	}
	return resultset.Options{
		CountryOf:   w.CountryOf,
		RankOf:      rankOf,
		RankBuckets: rankBuckets,
		RankMax:     w.TopLists.Max,
	}
}

// patchRows substitutes the changed rows into a copy of base, by
// hostname, and returns the patched slice.
func patchRows(t *testing.T, base, changed []scanner.Result) []scanner.Result {
	t.Helper()
	byHost := make(map[string]int, len(base))
	for i := range base {
		byHost[base[i].Hostname] = i
	}
	out := append([]scanner.Result(nil), base...)
	for _, r := range changed {
		i, ok := byHost[r.Hostname]
		if !ok {
			t.Fatalf("changed host %q not in base corpus", r.Hostname)
		}
		out[i] = r
	}
	return out
}

// TestApplyDeltaMatchesRebuild is the golden-differential proof for
// incremental patching: remediate the world, rescan only
// the changed hosts at the follow-up time, ApplyDelta the base set, and
// compare every accessor against a from-scratch build over the patched
// result slice. A second chained delta re-runs the comparison to prove
// generations compose, and the base set is re-verified afterwards to
// prove snapshot isolation.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	w := deltaWorld(t)
	opts := deltaOptions(w)
	baseRaw := scanHosts(w, w.GovHosts, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	base := resultset.New(append([]scanner.Result(nil), baseRaw...), opts)

	// First delta: remediation flips availability, certificates and
	// categories for a spread of hosts; fresh certs mean brand-new
	// fingerprint/key/issuer keys appear mid-corpus.
	outcome := w.Remediate(base.InvalidHosts(), world.DefaultRemediationRates(), rand.New(rand.NewSource(7)))
	changed := outcome.ChangedHosts()
	if len(changed) == 0 {
		t.Fatal("remediation changed no hosts; the delta test needs churn")
	}
	followCfg := scanner.DefaultConfig(w.Stores["apple"], world.FollowUpScanTime)
	delta1 := scanHosts(w, changed, followCfg)

	got1, err := base.ApplyDelta(delta1)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	patched1 := patchRows(t, baseRaw, delta1)
	want1 := resultset.New(patched1, opts)
	assertSetsEqual(t, got1, want1)

	// The patched generation must answer host lookups with the new rows.
	r, ok := got1.Lookup(changed[0])
	if !ok {
		t.Fatalf("Lookup(%q) missing after delta", changed[0])
	}
	if want, _ := want1.Lookup(changed[0]); r.Category() != want.Category() {
		t.Fatalf("Lookup(%q) category = %v, want %v", changed[0], r.Category(), want.Category())
	}

	// Second, chained delta over the first generation: remediate again
	// (different draw) and rescan; generations must compose.
	outcome2 := w.Remediate(got1.InvalidHosts(), world.DefaultRemediationRates(), rand.New(rand.NewSource(11)))
	changed2 := outcome2.ChangedHosts()
	if len(changed2) == 0 {
		t.Fatal("second remediation changed no hosts")
	}
	delta2 := scanHosts(w, changed2, followCfg)
	got2, err := got1.ApplyDelta(delta2)
	if err != nil {
		t.Fatalf("second ApplyDelta: %v", err)
	}
	patched2 := patchRows(t, patched1, delta2)
	want2 := resultset.New(patched2, opts)
	assertSetsEqual(t, got2, want2)

	// Snapshot isolation: the base and intermediate generations still
	// answer byte-for-byte like fresh builds over their own slices.
	assertSetsEqual(t, got1, want1)
	assertSetsEqual(t, base, resultset.New(append([]scanner.Result(nil), baseRaw...), opts))
}

// TestApplyDeltaIdentityAndErrors pins the contract edges: an empty
// delta returns the receiver, an identical rescan round-trips, a
// duplicate hostname resolves to the last occurrence, and an unknown
// hostname is rejected without touching the receiver.
func TestApplyDeltaIdentityAndErrors(t *testing.T) {
	w := deltaWorld(t)
	opts := deltaOptions(w)
	raw := scanHosts(w, w.GovHosts, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	base := resultset.New(append([]scanner.Result(nil), raw...), opts)

	if got, err := base.ApplyDelta(nil); err != nil || got != base {
		t.Fatalf("empty delta: got %p err %v, want receiver", got, err)
	}

	// Rescanning at the same virtual time reproduces the same rows; the
	// delta must be a byte-for-byte no-op.
	sample := append([]scanner.Result(nil), raw[:25]...)
	same, err := base.ApplyDelta(sample)
	if err != nil {
		t.Fatalf("identity delta: %v", err)
	}
	assertSetsEqual(t, same, base)

	// Duplicate hostname: last occurrence wins.
	dup := []scanner.Result{raw[3], raw[3]}
	dup[0].HSTS = !dup[0].HSTS // a decoy earlier occurrence
	got, err := base.ApplyDelta(dup)
	if err != nil {
		t.Fatalf("duplicate delta: %v", err)
	}
	assertSetsEqual(t, got, base)

	bogus := raw[0]
	bogus.Hostname = "not-a-corpus-host.example"
	if _, err := base.ApplyDelta([]scanner.Result{bogus}); err == nil {
		t.Fatal("unknown host accepted")
	}
}
