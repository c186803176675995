package scanner_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/verify"
	"repro/internal/world"
)

// extWorld is this file's own world instance (the in-package tests own the
// shared one and mutate its faults).
var extWorld = world.MustBuild(world.TestConfig())

func extScanner(w *world.World) *scanner.Scanner {
	cfg := scanner.DefaultConfig(w.Stores["apple"], w.ScanTime)
	cfg.Seed = w.Cfg.Seed
	cfg.Clock = w.Clock
	return scanner.New(w.Net, w.DNS, w.Class, cfg)
}

func table2(rs []scanner.Result) string {
	return report.Table2(analysis.ComputeTable2(resultset.New(rs, resultset.Options{})))
}

// TestResumeMatchesUninterrupted is the headline checkpoint criterion: a
// scan killed at 50% and resumed from its journal produces byte-identical
// Table 2 aggregates to a never-interrupted run.
func TestResumeMatchesUninterrupted(t *testing.T) {
	hosts := extWorld.GovHosts
	baseline := extScanner(extWorld).ScanAll(context.Background(), hosts)

	// Simulate the killed run: a journal holding only the first half.
	path := filepath.Join(t.TempDir(), "scan.jsonl")
	j, err := scanner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range baseline[:len(baseline)/2] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, err := scanner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s := extScanner(extWorld)
	s.Cfg.Journal = j2
	resumed := s.ScanAll(context.Background(), hosts)

	if len(resumed) != len(baseline) {
		t.Fatalf("resumed %d results, want %d", len(resumed), len(baseline))
	}
	if got, want := table2(resumed), table2(baseline); got != want {
		t.Errorf("resumed Table 2 differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
	for i := range resumed {
		if resumed[i].Hostname != baseline[i].Hostname ||
			resumed[i].Category() != baseline[i].Category() {
			t.Errorf("host %d: resumed %q/%v, baseline %q/%v", i,
				resumed[i].Hostname, resumed[i].Category(),
				baseline[i].Hostname, baseline[i].Category())
		}
	}
}

// TestInterruptedScanResumes kills a live scan via context cancellation
// partway through, then resumes from the journal it left behind; the final
// aggregates must match an uninterrupted run regardless of where the kill
// landed.
func TestInterruptedScanResumes(t *testing.T) {
	hosts := extWorld.GovHosts
	path := filepath.Join(t.TempDir(), "scan.jsonl")
	j, err := scanner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s := extScanner(extWorld)
	s.Cfg.Journal = j
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ScanAll(ctx, hosts)
	}()
	// Kill the run once it is partway through (the scan may legitimately
	// finish first at small scales; the resume still has to be a no-op
	// then).
	for j.Len() < len(hosts)/4 {
		select {
		case <-done:
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	cancel()
	<-done
	j.Close()

	j2, err := scanner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() == 0 {
		t.Fatal("journal empty after interrupted run")
	}
	s2 := extScanner(extWorld)
	s2.Cfg.Journal = j2
	resumed := s2.ScanAll(context.Background(), hosts)

	baseline := extScanner(extWorld).ScanAll(context.Background(), hosts)
	if got, want := table2(resumed), table2(baseline); got != want {
		t.Errorf("resumed Table 2 differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFlakyWorldDeterministic: with transient faults injected, two
// same-seed runs are identical, and — because every injected fault heals
// within the paper's 3-retry budget — the aggregates match the fault-free
// world exactly. Fresh worlds per run: flaky faults are stateful
// (consumed by dials), so determinism is per-run, not per-world-instance.
func TestFlakyWorldDeterministic(t *testing.T) {
	cfg := world.TestConfig()
	cfg.Flakiness = 0.3

	scan := func() ([]scanner.Result, string) {
		w := world.MustBuild(cfg)
		rs := extScanner(w).ScanAll(context.Background(), w.GovHosts)
		return rs, table2(rs)
	}
	r1, t1 := scan()
	_, t2 := scan()
	if t1 != t2 {
		t.Errorf("same seed, different Table 2:\n%s\nvs\n%s", t1, t2)
	}

	clean := extScanner(extWorld).ScanAll(context.Background(), extWorld.GovHosts)
	if tClean := table2(clean); t1 != tClean {
		t.Errorf("flaky world shifted Table 2 (faults must heal within the retry budget):\nflaky:\n%s\nclean:\n%s", t1, tClean)
	}

	// The faults were real: the flaky run burned more 443 attempts.
	sum := func(rs []scanner.Result) int {
		n := 0
		for i := range rs {
			n += rs[i].Attempts
		}
		return n
	}
	if sum(r1) <= sum(clean) {
		t.Errorf("flaky run attempts = %d, clean = %d; expected extra retries", sum(r1), sum(clean))
	}
}

// parentJournal holds two lines a scanner whose verify.Result still carried
// Errors, Depth, EV and Detail wrote for the seed-42, scale-0.02 world: a
// valid EV chain and a self-signed leaf that also expired and mismatched.
const parentJournal = `{"hostname":"industry1.de","ip":"190.0.2.177","available":true,"attempts_https":true,"serves_https":true,"tls_version":772,"chain":"ArcBU0MwMYmAgICgBgxpbmR1c3RyeTEuZGUQR292ZXJubWVudCBvZiBkZQJkZRZBbWF6b24gRVYgU2VydmVyIENBIDFCBkFtYXpvbgJVUwEMaW5kdXN0cnkxLmRlgJbz6AuAsoalDAGAIP4dTSc7EBKb7CkgrIYnDgsDAAEMMi4yMy4xNDAuMS4xErMA95hLHsdGWwhJN2ByFaqIvRlLzMX7z8uCDf3QO7BhsmTqQDpZQ2FzwyWRJe/pmAFTQzAxsPCQkpHb2IRzFkFtYXpvbiBFViBTZXJ2ZXIgQ0EgMUIGQW1hem9uAlVTDkFtYXpvbiBSb290IENBBkFtYXpvbgJVUwCAiP3vCYD+8ckOAYAQErMA95hLHsdGWwhJN2ByFQMBANKW9ZFoeY7QYm8yVNOwNszmcK8q656L+aobxSzCeIiaLUKSsmvOz1gjLfQbbwSujA==","verify":{"Code":0,"Errors":null,"Depth":2,"EV":true,"Detail":""},"provider":"Private","attempts":1}
{"hostname":"sme2.gouv.cm","ip":"190.0.1.125","available":true,"redirects_to_https":true,"attempts_https":true,"serves_https":true,"tls_version":772,"chain":"AXhTQzAxAAlsb2NhbGhvc3QAAAlsb2NhbGhvc3QAAAEJbG9jYWxob3N0gKC2swuA9LLECwGAEBnL8k3gQ5Z+vm/4ThVurIIDAAAZy/JN4EOWfr5v+E4VbqyCk6g05QDEM/+MQiF3R1/P1cx4NqyWpjsoH6cikG7RwBM=","verify":{"Code":2,"Errors":[2,6,8],"Depth":0,"EV":false,"Detail":"leaf certificate is self-signed and untrusted"},"provider":"Private","attempts":1}
`

// TestParentJournalResumes: lines written before verify.Result shrank to
// its Code still resume, and to exactly the Result a scan produces now —
// encoding/json drops the keys the struct no longer has.
func TestParentJournalResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "parent.jsonl")
	if err := os.WriteFile(path, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := scanner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("journal holds %d hosts, want 2", j.Len())
	}
	w := world.MustBuild(world.Config{Seed: 42, Scale: 0.02})
	hosts := []string{"industry1.de", "sme2.gouv.cm"}
	fresh := extScanner(w).ScanAll(context.Background(), hosts)
	for i, h := range hosts {
		got, ok := j.Lookup(h)
		if !ok {
			t.Fatalf("%s missing from the resumed journal", h)
		}
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s resumed as\n %+v\nwant the fresh scan\n %+v", h, got, fresh[i])
		}
	}
	if got, _ := j.Lookup("sme2.gouv.cm"); got.Verify != (verify.Result{Code: verify.SelfSignedLeaf}) {
		t.Errorf("self-signed leaf resumed with verify %+v", got.Verify)
	}
}
