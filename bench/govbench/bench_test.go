package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/world"
)

// TestWorkloadsSmoke runs every workload, traced, at scale 0.02 with a
// 1-second measured phase and every output check on. The seed is
// world.TestConfig's, so the study runs also check their transcript
// against the recorded golden digest (see TestStudyDigestIsGolden), and
// the traced study run must tile its wall time with top-level spans
// within 2%. Under -race this also race-checks serve_churn's writer
// against the readers.
func TestWorkloadsSmoke(t *testing.T) {
	tc := world.TestConfig()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			rec, err := execute(context.Background(), w, config{Seed: tc.Seed, Seconds: 1, Scale: tc.Scale}, tracePath, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("checks failed:\n%s", out.String())
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := rec.Metrics[d.Name]; !ok {
					t.Errorf("metric %s not measured", d.Name)
				}
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var result map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if len(result) != 4 || result["correct"] == nil || result["attempted"] == nil ||
				result["failed"] == nil || result["metrics"] == nil {
				t.Fatalf("result keys wrong: %s", lines[len(lines)-1])
			}
			var metrics map[string]value
			if err := json.Unmarshal(result["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(perLayer) {
				t.Fatalf("traced result line has %d metrics, want the %d per-layer ones", len(metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s missing or wrong unit: %+v", d.Name, m)
				}
			}

			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) < 2 {
				t.Fatalf("trace file unreadable or empty (%d events): %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// TestStudyDigestIsGolden ties the recorded study digest for
// world.TestConfig to the repository's golden transcript, so the smoke
// test's digest check is a byte-identity check against it.
func TestStudyDigestIsGolden(t *testing.T) {
	golden, err := os.ReadFile("../../results/golden_experiments_seed74.txt")
	if err != nil {
		t.Fatal(err)
	}
	tc := world.TestConfig()
	want, ok := goldenDigest("study", tc.Seed, tc.Scale)
	sum := sha256.Sum256(golden)
	if !ok || want != hex.EncodeToString(sum[:]) {
		t.Fatalf("testdata/digests.txt records %q for the study at seed %d scale %g; the golden transcript hashes to %x",
			want, tc.Seed, tc.Scale, sum)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables compiled
// into govbench in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, govbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, govbench %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n govbench       %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n govbench       %+v", doc.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || strings.Join(doc.Command, " ") != "bash bench/run.sh" {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
}
