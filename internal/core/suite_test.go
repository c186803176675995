package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/world"
)

// suiteTranscript renders a full suite over s exactly as govreport -all
// writes it.
func suiteTranscript(t *testing.T, s *Study) string {
	t.Helper()
	results, err := RunAllExperiments(context.Background(), s, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		if err := report.WriteArtifact(&b, r.ID, r.Title, r.Output); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestSuiteReproducibleUnderFlakiness: injected transient faults are
// seeded, so two suites over fresh same-seed flaky worlds render
// byte-identical transcripts.
func TestSuiteReproducibleUnderFlakiness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	cfg := world.TestConfig()
	cfg.Flakiness = 0.3
	// The retry budget heals every injected fault, so the transcript
	// cannot show that the faults fired; the scan's attempt total can.
	if worldwideAttempts(cfg) <= worldwideAttempts(world.TestConfig()) {
		t.Fatal("Flakiness 0.3 added no retries to the worldwide scan")
	}
	first := suiteTranscript(t, MustNewStudy(cfg))
	if again := suiteTranscript(t, MustNewStudy(cfg)); again != first {
		t.Fatalf("flaky suite diverges across same-seed runs at byte %d", firstDiff(first, again))
	}
}

// worldwideAttempts is the total connection attempts of a fresh
// worldwide scan.
func worldwideAttempts(cfg world.Config) int {
	ww := MustNewStudy(cfg).Worldwide(context.Background())
	n := 0
	for i := 0; i < ww.Len(); i++ {
		n += ww.At(i).Attempts
	}
	return n
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestSuiteCancellation checks a cancelled context aborts the suite with
// an error before any experiment runs.
func TestSuiteCancellation(t *testing.T) {
	s := MustNewStudy(world.TestConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAllExperiments(ctx, s, SuiteOptions{})
	if err == nil {
		t.Fatal("cancelled suite returned no error")
	}
	if len(results) != 0 {
		t.Fatalf("cancelled suite rendered %d artifacts", len(results))
	}
}

// TestLookupExperiment covers the lazily-built case-insensitive ID index.
func TestLookupExperiment(t *testing.T) {
	for _, id := range []string{"T2", "t2", "fa6", "S722", "e4"} {
		e, ok := LookupExperiment(id)
		if !ok {
			t.Fatalf("LookupExperiment(%q) missed", id)
		}
		if !strings.EqualFold(e.ID, id) {
			t.Fatalf("LookupExperiment(%q) = %s", id, e.ID)
		}
	}
	if _, ok := LookupExperiment("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}
