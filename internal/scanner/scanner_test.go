package scanner

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/world"
)

var (
	testWorld = world.MustBuild(world.TestConfig())
	testScan  []Result
)

func testScanner() *Scanner {
	w := testWorld
	return New(w.Net, w.DNS, w.Class, DefaultConfig(w.Stores["apple"], w.ScanTime))
}

// scanAllOnce scans the worldwide list once, caching across tests.
func scanAllOnce(t testing.TB) []Result {
	t.Helper()
	if testScan == nil {
		testScan = testScanner().ScanAll(context.Background(), testWorld.GovHosts)
	}
	return testScan
}

func TestScanRecoversInjectedClasses(t *testing.T) {
	results := scanAllOnce(t)
	want := map[world.ErrorClass]Category{
		world.ClassValid:                CatValid,
		world.ClassNone:                 CatHTTPOnly,
		world.ClassHostnameMismatch:     CatHostnameMismatch,
		world.ClassLocalIssuer:          CatLocalIssuer,
		world.ClassSelfSigned:           CatSelfSigned,
		world.ClassSelfSignedChain:      CatSelfSignedChain,
		world.ClassExpired:              CatExpired,
		world.ClassExcSSLProto:          CatExcSSLProto,
		world.ClassExcTimeout:           CatExcTimeout,
		world.ClassExcRefused:           CatExcRefused,
		world.ClassExcReset:             CatExcReset,
		world.ClassExcWrongVersion:      CatExcWrongVersion,
		world.ClassExcAlertInternal:     CatExcAlertInternal,
		world.ClassExcAlertHandshake:    CatExcAlertHandshake,
		world.ClassExcAlertProtoVersion: CatExcAlertProtoVersion,
	}
	agree := map[world.ErrorClass][2]int{} // [agreed, total]
	for i, res := range results {
		site := testWorld.Sites[testWorld.GovHosts[i]]
		wantCat, ok := want[site.Injected]
		if !ok {
			continue
		}
		c := agree[site.Injected]
		c[1]++
		if res.Category() == wantCat {
			c[0]++
		}
		agree[site.Injected] = c
	}
	for class, c := range agree {
		if c[1] == 0 {
			continue
		}
		rate := float64(c[0]) / float64(c[1])
		if rate < 0.93 {
			t.Errorf("class %v: scanner recovered %.1f%% of %d sites", class, 100*rate, c[1])
		}
	}
	if len(agree) < 12 {
		t.Errorf("only %d injected classes observed", len(agree))
	}
}

func TestScanAvailability(t *testing.T) {
	results := scanAllOnce(t)
	available := 0
	for _, r := range results {
		if r.Available {
			available++
		}
	}
	// Every worldwide-list host is reachable by construction.
	if frac := float64(available) / float64(len(results)); frac < 0.99 {
		t.Errorf("available fraction = %.3f, want ~1.0", frac)
	}
}

func TestScanUnreachableHosts(t *testing.T) {
	s := testScanner()
	results := s.ScanAll(context.Background(), testWorld.UnreachableHosts)
	for i, r := range results {
		if r.Available {
			t.Errorf("unreachable host %q scanned as available", testWorld.UnreachableHosts[i])
		}
	}
}

func TestScanNXDomain(t *testing.T) {
	s := testScanner()
	r := s.Scan(context.Background(), "definitely-not-a-host.gov.zz")
	if !r.DNSError || r.Available {
		t.Errorf("result = %+v, want DNS error", r)
	}
	if r.Category() != CatUnavailable {
		t.Errorf("category = %v", r.Category())
	}
}

func TestScanRetriesCounted(t *testing.T) {
	s := testScanner()
	// A fault-refused site gets 1+Retries attempts on 443.
	for _, h := range testWorld.GovHosts {
		site := testWorld.Sites[h]
		if site.Injected == world.ClassExcTimeout {
			r := s.Scan(context.Background(), h)
			if r.Attempts != 1+s.Cfg.Retries {
				t.Errorf("attempts = %d, want %d", r.Attempts, 1+s.Cfg.Retries)
			}
			return
		}
	}
	t.Skip("no timeout-fault site at this scale")
}

func TestScanHSTSDetected(t *testing.T) {
	results := scanAllOnce(t)
	found := false
	for i, r := range results {
		site := testWorld.Sites[testWorld.GovHosts[i]]
		if site.HSTS && r.ValidHTTPS() {
			if !r.HSTS {
				t.Errorf("HSTS header not observed on %q", r.Hostname)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no HSTS site at this scale")
	}
}

func TestScanHostingClassification(t *testing.T) {
	results := scanAllOnce(t)
	for i, r := range results {
		site := testWorld.Sites[testWorld.GovHosts[i]]
		if r.DNSError {
			continue
		}
		if r.HostKind != site.HostKind {
			t.Errorf("%q hosting = %v, world says %v", r.Hostname, r.HostKind, site.HostKind)
		}
	}
}

func TestScanChainMatchesServed(t *testing.T) {
	results := scanAllOnce(t)
	for i, r := range results {
		site := testWorld.Sites[testWorld.GovHosts[i]]
		if len(r.Chain) == 0 || len(site.Chain) == 0 {
			continue
		}
		if r.Chain[0].Fingerprint() != site.Chain[0].Fingerprint() {
			t.Errorf("%q leaf fingerprint differs from served chain", r.Hostname)
		}
	}
}

func TestCategoryProperties(t *testing.T) {
	if CatValid.IsInvalidHTTPS() || CatHTTPOnly.IsInvalidHTTPS() {
		t.Error("valid/http-only flagged invalid")
	}
	if !CatHostnameMismatch.IsInvalidHTTPS() {
		t.Error("mismatch not flagged invalid")
	}
	if !CatExcSSLProto.IsException() || CatExpired.IsException() {
		t.Error("exception classification wrong")
	}
	if CatValid.String() != "Valid HTTPS Certificates" {
		t.Errorf("category name = %q", CatValid.String())
	}
}

func TestScanCancellation(t *testing.T) {
	s := testScanner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := s.ScanAll(ctx, testWorld.GovHosts[:50])
	// Cancellation must not panic; unscanned entries are zero values.
	for _, r := range results {
		if r.Available && r.Hostname == "" {
			t.Error("inconsistent zero result")
		}
	}
}

func TestJSONExport(t *testing.T) {
	results := scanAllOnce(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results[:50]); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 50 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad JSON line: %v", err)
		}
		if rec.Hostname == "" || rec.Category == "" {
			t.Fatalf("incomplete record: %+v", rec)
		}
	}
	// Spot-check a valid https record carries certificate metadata.
	for i := range results {
		if results[i].ValidHTTPS() {
			rec := results[i].ToRecord()
			if rec.Issuer == "" || rec.NotAfter == "" || rec.KeyBits == 0 {
				t.Errorf("valid record missing cert fields: %+v", rec)
			}
			break
		}
	}
}

func TestVantageCensorship(t *testing.T) {
	// §7.1.2: the firewall model blackholes part of the Chinese
	// unreachable population for external vantages. Those hosts must fail
	// with timeouts externally; reachable sites are never firewalled.
	w := testWorld
	s := testScanner()
	blocked := 0
	for _, h := range w.UnreachableHosts {
		if len(h) < 3 || h[len(h)-3:] != ".cn" {
			continue
		}
		r := s.Scan(context.Background(), h)
		if r.Available {
			t.Errorf("unreachable Chinese host %q available", h)
		}
		if r.Exception == ExcTimeout || (r.ExceptionDetail == "" && !r.DNSError && r.Attempts > 1) {
			blocked++
		}
	}
	// Reachable Chinese sites are unaffected by the firewall.
	for _, h := range w.ByCountry["cn"] {
		r := s.Scan(context.Background(), h)
		if !r.Available {
			t.Errorf("reachable Chinese host %q blocked", h)
		}
		break
	}
	_ = blocked
}
