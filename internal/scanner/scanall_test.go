package scanner_test

import (
	"context"
	"testing"
)

// TestScanAllInputOrder: one row per hostname, in input order, each equal
// to what a lone Scan of that host reports — the worker pool's completion
// order never leaks into the slice.
func TestScanAllInputOrder(t *testing.T) {
	hosts := extWorld.GovHosts
	sc := extScanner(extWorld)
	results := sc.ScanAll(context.Background(), hosts)

	if len(results) != len(hosts) {
		t.Fatalf("scanned %d results for %d hosts", len(results), len(hosts))
	}
	for i := range results {
		if results[i].Hostname != hosts[i] {
			t.Fatalf("result %d is %q, want input-order %q", i, results[i].Hostname, hosts[i])
		}
	}
	for i := 0; i < len(hosts); i += 37 {
		lone := sc.Scan(context.Background(), hosts[i])
		if results[i].Category() != lone.Category() {
			t.Fatalf("host %q: ScanAll %v, lone Scan %v", hosts[i],
				results[i].Category(), lone.Category())
		}
	}
}

// TestScanAllCancelled: with the context already cancelled, every host
// still produces a placeholder row carrying its hostname, in order.
func TestScanAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hosts := extWorld.GovHosts[:min(64, len(extWorld.GovHosts))]
	results := extScanner(extWorld).ScanAll(ctx, hosts)
	if len(results) != len(hosts) {
		t.Fatalf("returned %d placeholders for %d hosts", len(results), len(hosts))
	}
	for i, h := range hosts {
		if results[i].Hostname != h {
			t.Fatalf("placeholder %d is %q, want %q", i, results[i].Hostname, h)
		}
		if results[i].Available {
			t.Errorf("host %q scanned after cancellation", h)
		}
	}
}

// TestScanAllDeterministic: two same-seed scans are identical row by row.
func TestScanAllDeterministic(t *testing.T) {
	hosts := extWorld.GovHosts
	a := extScanner(extWorld).ScanAll(context.Background(), hosts)
	b := extScanner(extWorld).ScanAll(context.Background(), hosts)
	for i := range a {
		if a[i].Category() != b[i].Category() {
			t.Fatalf("host %q: %v then %v across same-seed runs", hosts[i], a[i].Category(), b[i].Category())
		}
	}
}
