package scanner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssim"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/tlssim"
	"repro/internal/world"
)

// findHealthySite returns a worldwide site that is a clean, valid https
// host (redirecting port 80), so any failure a test observes comes from
// the fault it injected.
func findHealthySite(t *testing.T) *world.Site {
	t.Helper()
	for _, h := range testWorld.GovHosts {
		s := testWorld.Sites[h]
		if s.Injected == world.ClassValid && s.Serving == world.BothRedirect &&
			s.Fault == simnet.FaultNone && s.Quirk == tlssim.QuirkNone && s.IP.IsValid() {
			return s
		}
	}
	t.Skip("no clean valid site at this scale")
	return nil
}

// TestFaultClassificationMatrix drives every simnet fault mode through the
// scanner and checks the Table 2 exception it lands in, the retry budget
// it consumes, and the availability bits.
func TestFaultClassificationMatrix(t *testing.T) {
	site := findHealthySite(t)
	ep := netip.AddrPortFrom(site.IP, 443)
	s := testScanner()
	budget := 1 + s.Cfg.Retries

	rows := []struct {
		name      string
		spec      simnet.FaultSpec
		wantExc   Exception
		wantTries int
		wantValid bool
	}{
		{"refused", simnet.FaultSpec{Mode: simnet.FaultRefuse}, ExcRefused, budget, false},
		{"timeout", simnet.FaultSpec{Mode: simnet.FaultTimeout}, ExcTimeout, budget, false},
		{"reset-on-use", simnet.FaultSpec{Mode: simnet.FaultReset}, ExcReset, 1, false},
		{"flaky-recovers", simnet.FaultSpec{Mode: simnet.FaultFlaky, FailCount: 2}, ExcNone, 3, true},
		{"flaky-exhausts-budget", simnet.FaultSpec{Mode: simnet.FaultFlaky, FailCount: 99}, ExcReset, budget, false},
		{"prob-certain-timeout", simnet.FaultSpec{Mode: simnet.FaultProb, Probability: 1, FailWith: simnet.ErrTimedOut}, ExcTimeout, budget, false},
		{"mid-handshake-reset", simnet.FaultSpec{Mode: simnet.FaultMidHandshake}, ExcReset, 1, false},
		{"truncated-response", simnet.FaultSpec{Mode: simnet.FaultTruncate, TruncateBytes: 3}, ExcOther, 1, false},
		{"slow-but-healthy", simnet.FaultSpec{DialLatency: 200 * time.Millisecond}, ExcNone, 1, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			testWorld.Net.SetFaultSpec(ep, row.spec)
			defer testWorld.Net.SetFaultSpec(ep, simnet.FaultSpec{})
			r := s.Scan(context.Background(), site.Hostname)
			checkChainInvariant(t, row.name, &r)
			if r.Exception != row.wantExc {
				t.Errorf("exception = %v (%q), want %v", r.Exception, r.ExceptionDetail, row.wantExc)
			}
			if r.Attempts != row.wantTries {
				t.Errorf("attempts = %d, want %d", r.Attempts, row.wantTries)
			}
			if r.ValidHTTPS() != row.wantValid {
				t.Errorf("ValidHTTPS = %v, want %v", r.ValidHTTPS(), row.wantValid)
			}
			// Port 80 still redirects, so the host always counts as
			// attempting https and as available.
			if !r.AttemptsHTTPS || !r.Available {
				t.Errorf("AttemptsHTTPS = %v, Available = %v, want both true", r.AttemptsHTTPS, r.Available)
			}
			if row.wantValid && row.spec.Mode == simnet.FaultFlaky && !r.ServesHTTPS {
				t.Error("recovered flaky host did not serve https")
			}
		})
	}
}

// checkChainInvariant asserts the invariant longitudinal.Tally relies on
// to read its states from the Table 2 counts: a result carries a chain
// only after a completed handshake, so it also attempts https, carries
// no exception and is available.
func checkChainInvariant(t *testing.T, what string, r *Result) {
	t.Helper()
	if len(r.Chain) > 0 && (!r.AttemptsHTTPS || r.Exception != ExcNone || !r.Available) {
		t.Fatalf("%s: %q has a chain but AttemptsHTTPS=%v Exception=%v Available=%v",
			what, r.Hostname, r.AttemptsHTTPS, r.Exception, r.Available)
	}
}

// TestChainImpliesCompletedHandshake checks checkChainInvariant over the
// corpus and over one host whose 443 stream is cut at every byte offset
// until the exchange completes (TestFaultClassificationMatrix checks it
// under the other fault modes).
func TestChainImpliesCompletedHandshake(t *testing.T) {
	results := scanAllOnce(t)
	for i := range results {
		checkChainInvariant(t, "corpus", &results[i])
	}

	site := findHealthySite(t)
	ep := netip.AddrPortFrom(site.IP, 443)
	defer testWorld.Net.SetFaultSpec(ep, simnet.FaultSpec{})
	s := testScanner()
	chained := false
	for n := 0; n < 1<<16; n++ {
		testWorld.Net.SetFaultSpec(ep, simnet.FaultSpec{Mode: simnet.FaultTruncate, TruncateBytes: n})
		r := s.Scan(context.Background(), site.Hostname)
		checkChainInvariant(t, fmt.Sprintf("443 truncated after %d bytes", n), &r)
		chained = chained || len(r.Chain) > 0
		if r.ServesHTTPS {
			break
		}
	}
	if !chained {
		t.Fatal("no truncation let the handshake complete")
	}
}

// TestFirewallNotRetried: a deterministically censored route is classified
// on the first dial — one attempt per port, no retry budget burned.
func TestFirewallNotRetried(t *testing.T) {
	var host string
	for _, h := range testWorld.UnreachableHosts {
		if !strings.HasSuffix(h, ".cn") || testWorld.CountryOf(h) != "" {
			continue
		}
		if addrs, err := testWorld.DNS.LookupA(h); err == nil && len(addrs) > 0 {
			host = h
			break
		}
	}
	if host == "" {
		t.Skip("no firewalled host at this scale")
	}
	s := testScanner()
	before := testWorld.Net.DialCount()
	r := s.Scan(context.Background(), host)
	dials := testWorld.Net.DialCount() - before

	if r.Exception != ExcTimeout {
		t.Errorf("exception = %v, want %v (censorship looks like packet loss)", r.Exception, ExcTimeout)
	}
	if r.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retries against a firewall)", r.Attempts)
	}
	if dials != 2 {
		t.Errorf("dials = %d, want 2 (one per port)", dials)
	}
	if r.Available {
		t.Error("firewalled host scanned as available")
	}
}

func TestBreakerUnit(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker(3, time.Minute, clock)

	for i := 0; i < 2; i++ {
		if !b.Allow("aws") {
			t.Fatalf("circuit open after %d failures, threshold 3", i)
		}
		b.Failure("aws")
	}
	if !b.Allow("aws") {
		t.Fatal("circuit open below threshold")
	}
	b.Failure("aws")
	if b.Allow("aws") {
		t.Fatal("circuit still closed after threshold failures")
	}
	if b.Trips() != 1 || b.Skips() != 1 {
		t.Errorf("trips = %d skips = %d, want 1/1", b.Trips(), b.Skips())
	}

	// Cooldown expiry grants exactly one half-open probe.
	clock.Advance(61 * time.Second)
	if !b.Allow("aws") {
		t.Fatal("no probe after cooldown")
	}
	if b.Allow("aws") {
		t.Fatal("second probe granted while first in flight")
	}
	b.Failure("aws") // probe failed: re-open
	if b.Allow("aws") || b.Trips() != 2 {
		t.Fatalf("failed probe did not re-open (trips = %d)", b.Trips())
	}
	clock.Advance(2 * time.Minute)
	if !b.Allow("aws") {
		t.Fatal("no probe after second cooldown")
	}
	b.Success("aws") // probe succeeded: close
	if !b.Allow("aws") || !b.Allow("aws") {
		t.Error("circuit not closed after successful probe")
	}

	// Unclassifiable hosts and zero thresholds never trip.
	if !b.Allow("") {
		t.Error("empty key blocked")
	}
	z := NewBreaker(0, time.Minute, clock)
	for i := 0; i < 5; i++ {
		z.Failure("x")
	}
	if !z.Allow("x") {
		t.Error("zero-threshold breaker tripped")
	}
}

// TestBreakerScanIntegration: with a sequential scan against a dead
// provider block, the breaker opens after the threshold and later hosts
// record ExcCircuitOpen without dialing at all.
func TestBreakerScanIntegration(t *testing.T) {
	n := simnet.New()
	zone := dnssim.NewZone()
	var hosts []string
	for i := 0; i < 6; i++ {
		h := fmt.Sprintf("h%d.dead.gov.zz", i)
		ip := netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", 10+i))
		zone.AddA(h, ip)
		hosts = append(hosts, h)
		// The whole provider block is silent: every dial times out.
		n.SetFaultSpec(netip.AddrPortFrom(ip, 80), simnet.FaultSpec{Mode: simnet.FaultTimeout})
		n.SetFaultSpec(netip.AddrPortFrom(ip, 443), simnet.FaultSpec{Mode: simnet.FaultTimeout})
	}
	cfg := DefaultConfig(nil, time.Unix(0, 0))
	cfg.Concurrency = 1 // deterministic failure ordering
	cfg.Retries = 0
	cfg.Breaker = NewBreaker(2, time.Hour, simclock.NewVirtual(time.Unix(0, 0)))
	s := New(n, zone, nil, cfg)

	results := s.ScanAll(context.Background(), hosts)

	// Host 0 burned the two failures (port 80 + port 443) that opened the
	// circuit; it is reported on its own merits.
	if results[0].Exception == ExcCircuitOpen {
		t.Error("first host misreported as circuit-open")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Exception != ExcCircuitOpen {
			t.Errorf("host %d: exception = %v, want %v", i, results[i].Exception, ExcCircuitOpen)
		}
		if results[i].Category() != CatUnavailable {
			t.Errorf("host %d: category = %v, want %v", i, results[i].Category(), CatUnavailable)
		}
		if results[i].Attempts != 0 {
			t.Errorf("host %d: attempts = %d, want 0 (suppressed)", i, results[i].Attempts)
		}
	}
	if got := n.DialCount(); got != 2 {
		t.Errorf("network saw %d dials, want 2", got)
	}
	if cfg.Breaker.Trips() != 1 {
		t.Errorf("trips = %d, want 1", cfg.Breaker.Trips())
	}
	if cfg.Breaker.Skips() != 10 {
		t.Errorf("skips = %d, want 10 (2 ports x 5 hosts)", cfg.Breaker.Skips())
	}
}

// TestBreakerScanProbation drives the half-open probation path through
// real scans: a dead provider block opens the circuit; after the cooldown
// the next scan spends exactly one probe dial, and a failed probe re-opens
// while a successful probe (the block recovered) closes the circuit and
// lets the rest of the block scan on its own merits again.
func TestBreakerScanProbation(t *testing.T) {
	n := simnet.New()
	zone := dnssim.NewZone()
	var hosts []string
	for i := 0; i < 6; i++ {
		h := fmt.Sprintf("h%d.parked.gov.zz", i)
		ip := netip.MustParseAddr(fmt.Sprintf("203.0.114.%d", 10+i))
		zone.AddA(h, ip)
		hosts = append(hosts, h)
		n.SetFaultSpec(netip.AddrPortFrom(ip, 80), simnet.FaultSpec{Mode: simnet.FaultTimeout})
		n.SetFaultSpec(netip.AddrPortFrom(ip, 443), simnet.FaultSpec{Mode: simnet.FaultTimeout})
	}
	clock := simclock.NewVirtual(time.Unix(0, 0))
	cfg := DefaultConfig(nil, time.Unix(0, 0))
	cfg.Concurrency = 1 // deterministic failure ordering
	cfg.Retries = 0
	cfg.Breaker = NewBreaker(2, time.Hour, clock)
	s := New(n, zone, nil, cfg)
	ctx := context.Background()

	// Scan 1 trips the circuit: the whole block after host 0 is skipped.
	s.ScanAll(ctx, hosts)
	if cfg.Breaker.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", cfg.Breaker.Trips())
	}

	// Scan 2, past the cooldown, block still dead: one half-open probe
	// dial is spent, fails, and re-opens the circuit — everything else
	// stays suppressed without touching the network.
	clock.Advance(2 * time.Hour)
	before := n.DialCount()
	results := s.ScanAll(ctx, hosts)
	if got := n.DialCount() - before; got != 1 {
		t.Errorf("probation scan dialed %d times, want exactly 1 probe", got)
	}
	if cfg.Breaker.Trips() != 2 {
		t.Errorf("trips = %d, want 2 (failed probe re-opens)", cfg.Breaker.Trips())
	}
	for i := 1; i < len(results); i++ {
		if results[i].Exception != ExcCircuitOpen {
			t.Errorf("host %d: exception = %v, want %v", i, results[i].Exception, ExcCircuitOpen)
		}
	}

	// The provider recovers; scan 3 after another cooldown: host 0's probe
	// answers (a refused dial proves the network is up), the circuit
	// closes, and every host is probed for real — no circuit-open results.
	for i := 0; i < 6; i++ {
		ip := netip.MustParseAddr(fmt.Sprintf("203.0.114.%d", 10+i))
		n.SetFaultSpec(netip.AddrPortFrom(ip, 80), simnet.FaultSpec{})
		n.SetFaultSpec(netip.AddrPortFrom(ip, 443), simnet.FaultSpec{})
	}
	clock.Advance(2 * time.Hour)
	before = n.DialCount()
	results = s.ScanAll(ctx, hosts)
	if got := n.DialCount() - before; got != int64(2*len(hosts)) {
		t.Errorf("recovered scan dialed %d times, want %d (both ports, every host)", got, 2*len(hosts))
	}
	for i, r := range results {
		if r.Exception == ExcCircuitOpen {
			t.Errorf("host %d still suppressed after recovery", i)
		}
	}
	if cfg.Breaker.Trips() != 2 {
		t.Errorf("trips = %d, want 2 (successful probe closes, no new trips)", cfg.Breaker.Trips())
	}
}

// TestBreakerHealthyWorldNoTrips: on a healthy world the breaker must be
// inert. (Regression test: clean port-443 refusals from http-only hosts
// once counted as provider failures, so the "Private" circuit opened
// almost immediately and most of the world scanned as unavailable.)
func TestBreakerHealthyWorldNoTrips(t *testing.T) {
	s := testScanner()
	s.Cfg.Concurrency = 1 // deterministic failure ordering
	s.Cfg.Breaker = NewBreaker(5, time.Hour, simclock.NewVirtual(time.Unix(0, 0)))
	results := s.ScanAll(context.Background(), testWorld.GovHosts)
	if trips := s.Cfg.Breaker.Trips(); trips != 0 {
		t.Errorf("breaker tripped %d times on a healthy world", trips)
	}
	for i := range results {
		if results[i].Exception == ExcCircuitOpen {
			t.Fatalf("host %q suppressed on a healthy world", results[i].Hostname)
		}
	}
	baseline := scanAllOnce(t)
	for i := range results {
		if results[i].Category() != baseline[i].Category() {
			t.Errorf("host %q: category %v with breaker, %v without",
				results[i].Hostname, results[i].Category(), baseline[i].Category())
		}
	}
}

// TestJournalRoundTrip: a journal restores byte-identical results,
// certificate chains included.
func TestJournalRoundTrip(t *testing.T) {
	results := scanAllOnce(t)
	if len(results) > 80 {
		results = results[:80]
	}
	path := filepath.Join(t.TempDir(), "scan.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	unique := map[string]bool{}
	for _, r := range results {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		unique[r.Hostname] = true
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(unique) {
		t.Fatalf("journal holds %d hosts, want %d", j2.Len(), len(unique))
	}
	for _, want := range results {
		got, ok := j2.Lookup(want.Hostname)
		if !ok {
			t.Fatalf("host %q missing after reload", want.Hostname)
		}
		ge, _ := json.Marshal(toEntry(got))
		we, _ := json.Marshal(toEntry(want))
		if !bytes.Equal(ge, we) {
			t.Errorf("host %q: reloaded entry differs:\n got %s\nwant %s", want.Hostname, ge, we)
		}
		if got.Category() != want.Category() {
			t.Errorf("host %q: category %v != %v", want.Hostname, got.Category(), want.Category())
		}
		if len(want.Chain) > 0 && (len(got.Chain) != len(want.Chain) ||
			got.Chain[0].Fingerprint() != want.Chain[0].Fingerprint()) {
			t.Errorf("host %q: chain not restored losslessly", want.Hostname)
		}
	}
}

// TestJournalTruncatedTail: a run killed mid-write leaves a partial final
// line; reopening drops it and appends cleanly after the last good entry.
func TestJournalTruncatedTail(t *testing.T) {
	results := scanAllOnce(t)
	path := filepath.Join(t.TempDir(), "scan.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(results[0])
	j.Append(results[1])
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"hostname":"half-written.gov.zz","avail`) // kill -9 mid-write
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("len = %d after corrupt tail, want 2", j2.Len())
	}
	if _, ok := j2.Lookup("half-written.gov.zz"); ok {
		t.Fatal("corrupt entry surfaced")
	}
	if err := j2.Append(results[2]); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 {
		t.Errorf("len = %d after repair+append, want 3", j3.Len())
	}
}

// TestJournalTornBeforeNewline: a crash that cuts an entry's write just
// before its newline leaves a line that parses but is torn. Reopening
// must discard it rather than count its missing newline, which would
// extend the file with a NUL byte and glue the next append onto the torn
// line — losing both, and every later entry, on the following reopen.
func TestJournalTornBeforeNewline(t *testing.T) {
	results := scanAllOnce(t)
	path := filepath.Join(t.TempDir(), "scan.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:3] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil { // kill -9 before the final '\n'
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []string
	for _, r := range results[:3] {
		if _, ok := j2.Lookup(r.Hostname); ok {
			accepted = append(accepted, r.Hostname)
		}
	}
	if err := j2.Append(results[3]); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(repaired, 0) >= 0 {
		t.Error("repaired journal contains a NUL byte")
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	for _, h := range append(accepted, results[3].Hostname) {
		if _, ok := j3.Lookup(h); !ok {
			t.Errorf("host %q lost after repair + append", h)
		}
	}
	if want := len(accepted) + 1; j3.Len() != want {
		t.Errorf("len = %d after repair + append, want %d", j3.Len(), want)
	}
}

// FuzzOpenJournal feeds arbitrary bytes to the journal reader. Whatever
// the input, OpenJournal must not panic; on success the repaired file is
// a prefix of the input that is empty or ends in a newline, reopening it
// changes nothing, and one fresh append survives a close and reopen.
func FuzzOpenJournal(f *testing.F) {
	results := scanAllOnce(f)
	seeds := []Result{results[0], {Hostname: "dns-fail.gov.zz", DNSError: true}}
	for _, r := range results {
		if len(r.Chain) > 0 {
			seeds = append(seeds, r)
			break
		}
	}
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range seeds {
		j.Append(r)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(full)-1])                                   // torn before the final newline
	f.Add(full[:len(full)/2])                                   // torn mid-entry
	f.Add(append(append([]byte{}, full...), `{"hostname":`...)) // partial trailing entry

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return
		}
		n := j.Len()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("repaired journal is not a prefix of the input:\n got %q\nfrom %q", kept, data)
		}
		if len(kept) > 0 && kept[len(kept)-1] != '\n' {
			t.Fatalf("repaired journal does not end in a newline: %q", kept)
		}

		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening a repaired journal: %v", err)
		}
		if j2.Len() != n {
			t.Fatalf("second open holds %d hosts, first held %d", j2.Len(), n)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(len(kept)) {
			t.Fatalf("second open changed the file: %v, size %v want %d", err, st, len(kept))
		}
		fresh := "fresh.gov.zz"
		for {
			if _, dup := j2.Lookup(fresh); !dup {
				break
			}
			fresh = "x" + fresh
		}
		if err := j2.Append(Result{Hostname: fresh}); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		j3, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		defer j3.Close()
		if j3.Len() != n+1 {
			t.Fatalf("after one fresh append: %d hosts, want %d", j3.Len(), n+1)
		}
	})
}
