package resultset_test

import (
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cert"
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
	return resultset.Options{CountryOf: w.CountryOf}
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

// rotateLeaf returns r with a freshly issued leaf: a new serial and key
// identity (so a new fingerprint and key ID) under the given issuer CN,
// re-signed by the same issuer key, every other field unchanged. The
// certificates r shares are not touched.
func rotateLeaf(r scanner.Result, gen int, issuerCN string) scanner.Result {
	leaf := *r.Chain[0]
	leaf.SerialNumber = uint64(1)<<40 | uint64(gen)
	binary.BigEndian.PutUint64(leaf.PublicKey.ID[:8], uint64(1)<<40|uint64(gen))
	leaf.Issuer.CommonName = issuerCN
	leaf.Sign(leaf.AuthorityKeyID) // drops the copied caches
	leaf.Freeze()
	r.Chain = append([]*cert.Certificate{&leaf}, r.Chain[1:]...)
	return r
}

// TestLongDeltaChainMatchesRebuild runs the observatory's load shape as a
// model test: a chain of one-row generations over a corpus where every
// row has a chain, each rotating one leaf — a new fingerprint and key ID
// per generation, as certificate renewal produces — walking the corpus
// so the overlay crosses the 1/8 compaction trigger again and again. At
// checkpoints every accessor must equal a from-scratch build over the
// same rows. A generation's cost must not grow with the chain: bytes
// allocated per delta over the last 100 generations stay within 1.5x of
// the first 100 (a per-delta copy of any vector indexed by every key the
// chain ever minted fails this).
func TestLongDeltaChainMatchesRebuild(t *testing.T) {
	const corpus, gens, window = 200, 1000, 100
	opts := testOptions()
	var rows []scanner.Result
	for _, r := range raw(t) {
		if len(r.Chain) > 0 && len(rows) < corpus {
			rows = append(rows, r)
		}
	}
	if len(rows) < corpus {
		t.Fatalf("test world has %d chain-bearing rows, need %d", len(rows), corpus)
	}
	// Rotations cycle through a few of the corpus's own issuers, so the
	// issuer family is patched too while its key space stays fixed.
	issuers := resultset.New(append([]scanner.Result(nil), rows...), opts).Issuers()
	if len(issuers) > 4 {
		issuers = issuers[:4]
	}
	if len(issuers) < 2 {
		t.Fatalf("corpus has %d issuers, need 2", len(issuers))
	}

	cur := resultset.New(append([]scanner.Result(nil), rows...), opts)
	// Build the host index up front (it is inherited along the chain), so
	// the first window measures deltas alone.
	cur.Lookup(rows[0].Hostname)
	var ms runtime.MemStats
	var firstBytes, lastBytes uint64
	for g := 0; g < gens; g++ {
		// 37 is coprime to the corpus size, so consecutive generations
		// touch distinct rows and the overlay grows until it compacts.
		j := g * 37 % corpus
		rows[j] = rotateLeaf(rows[j], g, issuers[g%len(issuers)])
		delta := []scanner.Result{rows[j]}

		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		next, err := cur.ApplyDelta(delta)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		switch {
		case g < window:
			firstBytes += ms.TotalAlloc - before
		case g >= gens-window:
			lastBytes += ms.TotalAlloc - before
		}
		cur = next

		if g%100 == 0 || g == gens-1 {
			assertSetsEqual(t, cur, resultset.New(append([]scanner.Result(nil), rows...), opts))
			if t.Failed() {
				t.Fatalf("generation %d diverges from a rebuild", g)
			}
		}
	}
	first, last := float64(firstBytes)/window, float64(lastBytes)/window
	t.Logf("bytes per delta: first %d generations %.0f, last %d %.0f (%.2fx)", window, first, window, last, last/first)
	if last > 1.5*first {
		t.Fatalf("bytes per delta grew with the chain: last %d generations %.0f > 1.5 x first %d %.0f", window, last, window, first)
	}
}

// TestKeyFamiliesConcurrentFirstUse: the lazily built fingerprint and
// key-ID families may be first asked for by several readers of one
// generation at once (the serving layer reads a pinned generation from
// many goroutines). Every reader must see the same families a fresh
// build over the patched rows has. Run under -race.
func TestKeyFamiliesConcurrentFirstUse(t *testing.T) {
	base := set(t)
	rows := append([]scanner.Result(nil), raw(t)...)
	var delta []scanner.Result
	for i := range rows {
		if len(rows[i].Chain) > 0 && len(delta) < 8 {
			rows[i] = rotateLeaf(rows[i], i, rows[i].Chain[0].Issuer.CommonName)
			delta = append(delta, rows[i])
		}
	}
	gen, err := base.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	want := resultset.New(rows, testOptions())
	wantFPs, wantKIDs := want.Fingerprints(), want.KeyIDs()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the readers start from the bucket accessors, half
			// from the key lists, so either can be the one that builds.
			if g%2 == 0 {
				if got, w := gen.ByKeyID(wantKIDs[0]), want.ByKeyID(wantKIDs[0]); !reflect.DeepEqual(got, w) {
					t.Errorf("reader %d: ByKeyID = %v, want %v", g, got, w)
				}
			}
			if !reflect.DeepEqual(gen.Fingerprints(), wantFPs) {
				t.Errorf("reader %d: fingerprint order diverges", g)
			}
			if !reflect.DeepEqual(gen.KeyIDs(), wantKIDs) {
				t.Errorf("reader %d: key-ID order diverges", g)
			}
			for _, fp := range wantFPs {
				if !reflect.DeepEqual(gen.ByFingerprint(fp), want.ByFingerprint(fp)) {
					t.Errorf("reader %d: ByFingerprint diverges", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
