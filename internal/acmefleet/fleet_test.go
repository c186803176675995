package acmefleet

import (
	"bytes"
	"container/heap"
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/acme"
	"repro/internal/dnssim"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/world"
)

// fixture builds a private small world and scans it. Every test gets a
// fresh world: campaigns mutate serving state.
func fixture(tb testing.TB, seed int64) (*world.World, *resultset.Set) {
	tb.Helper()
	w := world.MustBuild(world.Config{Seed: seed, Scale: 0.004})
	cfg := scanner.DefaultConfig(w.Stores["apple"], w.ScanTime)
	cfg.Seed = seed
	cfg.Clock = w.Clock
	sc := scanner.New(w.Net, w.DNS, w.Class, cfg)
	return w, resultset.New(sc.ScanAll(context.Background(), w.GovHosts), resultset.Options{CountryOf: w.CountryOf})
}

// quickConfig keeps campaigns short: 30 simulated days at 12h ticks.
func quickConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Horizon:       30 * 24 * time.Hour,
		Tick:          12 * time.Hour,
		Workers:       4,
		BackoffBase:   6 * time.Hour,
		BackoffMax:    2 * 24 * time.Hour,
		FailureBudget: 3,
		Probation:     3 * 24 * time.Hour,
		MaxProbes:     2,
	}
}

func findStatus(tb testing.TB, rep *Report, hostname string) HostStatus {
	tb.Helper()
	for _, h := range rep.Hosts {
		if h.Hostname == hostname {
			return h
		}
	}
	tb.Fatalf("%s not in report", hostname)
	return HostStatus{}
}

func TestEnrollSelectsMisconfigured(t *testing.T) {
	_, set := fixture(t, 41)
	enrolled := Enroll(set)
	if len(enrolled) < 20 {
		t.Fatalf("only %d hosts enrolled; world too healthy for a fleet test", len(enrolled))
	}
	for i := 1; i < len(enrolled); i++ {
		if enrolled[i-1].Hostname >= enrolled[i].Hostname {
			t.Fatal("enrollment not sorted by hostname")
		}
	}
}

// TestDueQueueTiesPopInHostnameOrder: hosts due at the same instant leave
// the queue in hostname order (the heap breaks ties by enrollment rank),
// and an earlier due time still wins over a smaller hostname.
func TestDueQueueTiesPopInHostnameOrder(t *testing.T) {
	w, set := fixture(t, 41)
	cfg := quickConfig(41)
	f := New(w, set, cfg)
	sorted := func(hs []*hostState) bool {
		for i := 1; i < len(hs); i++ {
			if hs[i-1].hostname >= hs[i].hostname {
				return false
			}
		}
		return true
	}
	all := f.popDue(f.Cfg.Start)
	if len(all) != len(f.hosts) || len(all) < 20 {
		t.Fatalf("popped %d of %d enrolled hosts", len(all), len(f.hosts))
	}
	if !sorted(all) {
		t.Fatal("hosts due together did not pop in hostname order")
	}

	// Re-queue in reverse, alternating two due times: each band must pop
	// in hostname order, the earlier band first.
	early, late := f.Cfg.Start.Add(time.Hour), f.Cfg.Start.Add(2*time.Hour)
	for i := len(all) - 1; i >= 0; i-- {
		all[i].due = late
		if i%2 == 0 {
			all[i].due = early
		}
		heap.Push(&f.queue, all[i])
	}
	first, second := f.popDue(early), f.popDue(late)
	if len(first) != (len(all)+1)/2 || len(first)+len(second) != len(all) {
		t.Fatalf("bands popped %d + %d of %d hosts", len(first), len(second), len(all))
	}
	if !sorted(first) || !sorted(second) {
		t.Fatal("a due band did not pop in hostname order")
	}
}

// TestCampaignConvergesCleanWorld: with no injected faults every enrolled
// host renews, the estate actually serves the new certificates, and the
// report converges.
func TestCampaignConvergesCleanWorld(t *testing.T) {
	w, set := fixture(t, 41)
	f := New(w, set, quickConfig(41))
	rep := f.Run(context.Background())
	if rep.Enrolled == 0 {
		t.Fatal("empty campaign")
	}
	if !rep.Converged() {
		t.Fatal("campaign did not converge")
	}
	final := rep.Final()
	if final.Renewed != rep.Enrolled {
		t.Fatalf("renewed %d of %d on a fault-free world (parked=%d denied=%d)",
			final.Renewed, rep.Enrolled, final.Parked, final.Denied)
	}
	// The serving world now has the rotated certificates: every renewed
	// host's site carries a fleet-issued Let's Encrypt chain.
	for _, h := range rep.ChangedHosts() {
		s, ok := w.Sites[h]
		if !ok || len(s.Chain) == 0 {
			t.Fatalf("%s has no chain after rotation", h)
		}
		if s.Chain[0].PublicKey.ID != hostKey(41, h).ID {
			t.Fatalf("%s serving a chain the fleet did not issue", h)
		}
	}
}

// TestFaultMatrix drives the full fault × error-class matrix: flaky dial,
// mid-handshake reset, truncated response, CAA denial — each against its
// asserted terminal state, retry count and error class — and proves the
// snapshot stream is byte-identical across reruns at any worker count.
func TestFaultMatrix(t *testing.T) {
	type caseSpec struct {
		name  string
		fault func(w *world.World, ip netip.Addr, zone *dnssim.Zone, host string)
	}
	// campaign builds a fresh world, injects one fault per designated
	// host, runs the fleet, and returns (report, designated hosts).
	campaign := func(workers int) (*Report, []string) {
		w, set := fixture(t, 41)
		enrolled := Enroll(set)
		if len(enrolled) < 8 {
			t.Fatalf("need ≥8 enrolled hosts, have %d", len(enrolled))
		}
		// Designate four enrolled hosts, spread across the list.
		pick := func(i int) string { return enrolled[i*len(enrolled)/8].Hostname }
		flaky, midHS, trunc := pick(1), pick(3), pick(5)
		// CAA denial needs a host with no pre-existing CAA records
		// (records append, and any letsencrypt record keeps it allowed).
		caaDeny := ""
		for i := 6 * len(enrolled) / 8; i < len(enrolled); i++ {
			h := enrolled[i].Hostname
			if h != flaky && h != midHS && h != trunc && len(w.DNS.LookupCAA(h)) == 0 {
				caaDeny = h
				break
			}
		}
		if caaDeny == "" {
			t.Fatal("no CAA-free host to deny")
		}
		ep := func(h string) netip.AddrPort {
			s := w.Sites[h]
			return netip.AddrPortFrom(s.IP, 80)
		}
		// Transient: first 2 challenge dials reset, then recovery.
		w.Net.SetFaultSpec(ep(flaky), simnet.FaultSpec{Mode: simnet.FaultFlaky, FailCount: 2})
		// Persistent: every order dies mid-handshake / mid-body.
		w.Net.SetFaultSpec(ep(midHS), simnet.FaultSpec{Mode: simnet.FaultMidHandshake})
		w.Net.SetFaultSpec(ep(trunc), simnet.FaultSpec{Mode: simnet.FaultTruncate, TruncateBytes: 12})
		// Terminal policy: DNS authorizes a different CA.
		w.DNS.AddCAA(caaDeny, dnssim.CAARecord{Tag: "issue", Value: "digicert.com"})

		cfg := quickConfig(41)
		cfg.Workers = workers
		f := New(w, set, cfg)
		rep := f.Run(context.Background())
		return rep, []string{flaky, midHS, trunc, caaDeny}
	}

	rep, hosts := campaign(4)
	flaky, midHS, trunc, caaDeny := hosts[0], hosts[1], hosts[2], hosts[3]

	// Flaky dial: two resets absorbed by backoff, then renewed.
	st := findStatus(t, rep, flaky)
	if st.State != FleetRenewed || st.Attempts != 3 || st.Class != ErrNone {
		t.Errorf("flaky: %+v, want renewed after exactly 3 attempts", st)
	}

	// Mid-handshake reset and truncation are persistent: the failure
	// budget parks the host, probation probes fail too, terminal parked.
	wantAttempts := 3 + 2 // FailureBudget + MaxProbes
	for _, h := range []string{midHS, trunc} {
		st := findStatus(t, rep, h)
		if st.State != FleetParked || !st.Terminal {
			t.Errorf("%s: state=%v terminal=%v, want terminally parked", h, st.State, st.Terminal)
		}
		if st.Attempts != wantAttempts {
			t.Errorf("%s: attempts=%d, want %d (budget+probes)", h, st.Attempts, wantAttempts)
		}
		if st.Class != ErrChallenge {
			t.Errorf("%s: class=%v, want challenge (VA-side network fault)", h, st.Class)
		}
	}

	// CAA denial is terminal on the first attempt: no retries.
	st = findStatus(t, rep, caaDeny)
	if st.State != FleetDenied || st.Attempts != 1 || st.Class != ErrCAA {
		t.Errorf("caa: %+v, want denied after exactly 1 attempt", st)
	}

	if !rep.Converged() {
		t.Error("fault-matrix campaign did not converge")
	}
	final := rep.Final()
	if final.Errors[ErrChallenge] == 0 || final.Errors[ErrCAA] != 1 {
		t.Errorf("error histogram = %v", final.Errors)
	}

	// Determinism: byte-identical snapshot streams at any worker count.
	base := rep.Bytes()
	for _, workers := range []int{1, 8} {
		again, _ := campaign(workers)
		if !bytes.Equal(base, again.Bytes()) {
			t.Fatalf("snapshot stream differs at workers=%d", workers)
		}
	}
}

// TestRateLimitExhaustion exercises the 429 path: the server's limits are
// tightened after construction, so the client-side mirror underestimates
// them and orders bounce. The fleet must reschedule at the advertised
// horizon — classifying, never parking, never hot-retrying within the
// window — and still converge.
func TestRateLimitExhaustion(t *testing.T) {
	w, set := fixture(t, 41)
	cfg := quickConfig(41)
	cfg.Workers = 1 // which order trips the limit is arrival-order-dependent
	f := New(w, set, cfg)
	window := 24 * time.Hour
	f.Server.Limits = acme.RateLimits{Global: 40, GlobalWindow: window}
	rep := f.Run(context.Background())

	final := rep.Final()
	if final.Errors[ErrRateLimited] == 0 {
		t.Fatal("no 429s despite a 40-order global window")
	}
	if !rep.Converged() {
		t.Fatal("rate-limited campaign did not converge")
	}
	for _, h := range rep.Hosts {
		if h.State == FleetParked && h.Class == ErrRateLimited {
			t.Fatalf("%s parked for rate limiting: 429s must not charge the failure budget", h.Hostname)
		}
	}
	// Issuance respected the server's cap: any two adjacent ticks fall
	// inside one 24h sliding window (snapshots are 12h apart), so at most
	// 40 successes land across them.
	for i := 2; i < len(rep.Snapshots); i++ {
		if d := rep.Snapshots[i].Renewals - rep.Snapshots[i-2].Renewals; d > 40 {
			t.Fatalf("%d renewals inside one rate-limit window at tick %d", d, i)
		}
	}
}

// TestClientSidePacing: when the fleet knows the limits, the mirror defers
// orders client-side and the campaign earns zero 429s.
func TestClientSidePacing(t *testing.T) {
	w, set := fixture(t, 41)
	cfg := quickConfig(41)
	cfg.Limits = acme.RateLimits{Global: 60, GlobalWindow: 24 * time.Hour}
	f := New(w, set, cfg)
	rep := f.Run(context.Background())
	if n := rep.Final().Errors[ErrRateLimited]; n != 0 {
		t.Fatalf("%d 429s despite client-side pacing", n)
	}
	if !rep.Converged() {
		t.Fatal("paced campaign did not converge")
	}
	if rep.Final().Renewed != rep.Enrolled {
		t.Fatalf("renewed %d of %d under pacing", rep.Final().Renewed, rep.Enrolled)
	}
}

// TestKeyReuseDenied: the §8.1 policy refuses a key already certified for
// an unrelated host — terminally, with no retries.
func TestKeyReuseDenied(t *testing.T) {
	w, set := fixture(t, 41)
	cfg := quickConfig(41)
	cfg.Workers = 1 // completion order decides which host owns the key
	f := New(w, set, cfg)
	if len(f.hosts) < 2 {
		t.Fatal("need two hosts")
	}
	// Two unrelated hosts sharing one private key: the second to finalize
	// must be refused.
	f.hosts[1].key = f.hosts[0].key
	rep := f.Run(context.Background())
	st := findStatus(t, rep, f.hosts[1].hostname)
	if st.State != FleetDenied || st.Class != ErrKeyReuse || st.Attempts != 1 {
		t.Errorf("shared-key host: %+v, want key-reuse denial on first attempt", st)
	}
	if first := findStatus(t, rep, f.hosts[0].hostname); first.State != FleetRenewed {
		t.Errorf("key owner: %+v, want renewed", first)
	}
}

// TestProbationRecovery: a host that fails its way into parking but
// recovers before the probe attempt closes the breaker and renews —
// parking is a cooldown, not a death sentence.
func TestProbationRecovery(t *testing.T) {
	w, set := fixture(t, 41)
	enrolled := Enroll(set)
	victim := enrolled[0].Hostname
	s := w.Sites[victim]
	// Exactly FailureBudget resets: the budget parks the host, and the
	// probation probe hits a recovered service.
	w.Net.SetFaultSpec(netip.AddrPortFrom(s.IP, 80),
		simnet.FaultSpec{Mode: simnet.FaultFlaky, FailCount: 3})
	f := New(w, set, quickConfig(41))
	rep := f.Run(context.Background())
	st := findStatus(t, rep, victim)
	if st.State != FleetRenewed || st.Renewals == 0 {
		t.Fatalf("victim: %+v, want renewed after probation", st)
	}
	if st.Attempts != 4 {
		t.Errorf("victim attempts = %d, want 4 (3 failures + successful probe)", st.Attempts)
	}
}

// TestRenewalCycle: a long horizon crosses the first certificates' renewal
// window (90-day lifetime − 30-day window = due at day 60), so hosts renew
// more than once and the world keeps serving through each rotation.
func TestRenewalCycle(t *testing.T) {
	w, set := fixture(t, 41)
	cfg := quickConfig(41)
	cfg.Horizon = 100 * 24 * time.Hour
	cfg.Tick = 24 * time.Hour
	f := New(w, set, cfg)
	rep := f.Run(context.Background())
	multi := 0
	for _, h := range rep.Hosts {
		if h.Renewals >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no host renewed twice over a 100-day horizon")
	}
	if rep.Final().Renewals <= rep.Enrolled {
		t.Fatalf("cumulative renewals %d should exceed population %d",
			rep.Final().Renewals, rep.Enrolled)
	}
}

// TestChaosErrorDecay: under the default chaos profile the error-class
// histogram decays — transient errors concentrate in early ticks and
// stop accumulating once backoff absorbs them.
func TestChaosErrorDecay(t *testing.T) {
	w, set := fixture(t, 41)
	enrolled := Enroll(set)
	hosts := make([]string, len(enrolled))
	for i, e := range enrolled {
		hosts[i] = e.Hostname
	}
	out := DefaultChaos().Apply(w, hosts, 41)
	if len(out.Flaky) == 0 || len(out.CAADenied) == 0 {
		t.Fatalf("chaos landed on too few hosts: %d flaky, %d denied, %d truncated",
			len(out.Flaky), len(out.CAADenied), len(out.Truncated))
	}
	f := New(w, set, quickConfig(41))
	rep := f.Run(context.Background())
	if !rep.Converged() {
		t.Fatal("chaos campaign did not converge")
	}
	mid := len(rep.Snapshots) / 2
	early := rep.Snapshots[mid].Errors[ErrChallenge]
	late := rep.Final().Errors[ErrChallenge] - early
	if early == 0 {
		t.Fatal("no challenge errors in the first half of the campaign")
	}
	if late >= early {
		t.Errorf("challenge errors not decaying: %d in first half, %d in second", early, late)
	}
	for _, h := range out.CAADenied {
		if st := findStatus(t, rep, h); st.State != FleetDenied {
			t.Errorf("%s: state=%v, want denied", h, st.State)
		}
	}
}
