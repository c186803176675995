package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// parent has median 100 and quartiles 99 and 101 (IQR 2, relative 0.02).
var parent = []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}

func shifted(base []float64, d float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v + d
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "errors", Better: "lower", Bound: 0}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
		wins int
	}{
		// Ten pair wins, and a median gap of 10 exceeds the parent's IQR of 2.
		{"better", lower, parent, shifted(parent, -10), "better", 10},
		{"higher is better", higher, parent, shifted(parent, 10), "better", 10},
		// 15% worse than the median, beyond the 10% bound.
		{"worse", lower, parent, shifted(parent, 15), "worse", 0},
		{"worse when higher is better", higher, parent, shifted(parent, -15), "worse", 0},
		// 5% worse is inside the bound.
		{"within bound", lower, parent, shifted(parent, 5), "same", 0},
		// Identical runs are ties: no wins, no change.
		{"ties", lower, parent, parent, "same", 0},
		// Eight of ten pairs won is short of nine tenths.
		{"too few wins", lower, parent, []float64{90, 91, 89, 90, 92, 88, 90, 91, 100, 101}, "same", 8},
		// The change's spread (relative IQR 0.5) is wider than the bound.
		{"unresolved", lower, parent, noisy, "unresolved", 5},
		{"bound 0: unchanged", exact, []float64{0, 0, 0}, []float64{0, 0, 0.01}, "same", 0},
		{"bound 0: any increase", exact, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, "worse", 0},
	}
	for _, c := range cases {
		v := judge(c.def, c.a, c.b)
		if v.Verdict != c.want || v.Wins != c.wins {
			t.Errorf("%s: verdict %s with %d wins, want %s with %d", c.name, v.Verdict, v.Wins, c.want, c.wins)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, setup []float64) string {
		path := filepath.Join(dir, name)
		for _, v := range setup {
			rec := &record{Workload: "observe", Metrics: map[string]value{"setup_s": {v, "s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", parent)
	same := write("same.jsonl", shifted(parent, 1))
	slower := write("slower.jsonl", shifted(parent, 30))

	var out, errOut bytes.Buffer
	if code := compareMain([]string{a, same}, &out, &errOut); code != 0 {
		t.Fatalf("A/A' exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "observe") || !strings.Contains(out.String(), "same") {
		t.Fatalf("A/A' output lacks the observe setup_s row:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{a, slower}, &out, &errOut); code != 1 {
		t.Fatalf("30%% slower set-up exit %d, want 1:\n%s", code, out.String())
	}
	if code := compareMain([]string{a}, &out, &errOut); code != 2 {
		t.Fatalf("missing argument exit %d, want 2", code)
	}
}
