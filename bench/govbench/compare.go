package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is compare's judgement of one metric on one workload, B (the
// change) against A (the parent).
type verdict struct {
	Def         metricDef
	A, B        spread
	Wins, Pairs int  // pairs (A[i], B[i]) and how many B won; ties count for neither
	AllBetter   bool // every B run reads better than every A run
	Verdict     string
}

// judge applies the acceptance rule: B is "better" when it wins at least
// nine tenths of the pairs and its median beats A's by more than A's own
// interquartile range; "unresolved" when either side's run-to-run spread
// is wider than the metric's bound (unless every B run beats every A
// run); "worse" when its median is worse than A's by more than the bound
// (any increase, for a bound of 0); otherwise "same".
func judge(def metricDef, a, b []float64) verdict {
	v := verdict{Def: def, A: summarizeRuns(a), B: summarizeRuns(b)}
	sign := 1.0 // > 0 means B improved
	if def.Better == "higher" {
		sign = -1
	}
	v.Pairs = min(len(a), len(b))
	for i := 0; i < v.Pairs; i++ {
		if sign*(a[i]-b[i]) > 0 {
			v.Wins++
		}
	}
	if len(a) > 0 && len(b) > 0 {
		if sign > 0 {
			v.AllBetter = v.B.Max < v.A.Min
		} else {
			v.AllBetter = v.B.Min > v.A.Max
		}
	}
	improvement := sign * (v.A.Median - v.B.Median)
	regression := -improvement
	if v.A.Median != 0 {
		regression /= math.Abs(v.A.Median)
	}
	switch {
	case v.Pairs > 0 && v.Wins*10 >= 9*v.Pairs && improvement > v.A.Q3-v.A.Q1:
		v.Verdict = "better"
	case max(v.A.RelIQR, v.B.RelIQR) > def.Bound && !v.AllBetter:
		v.Verdict = "unresolved"
	case regression > def.Bound:
		v.Verdict = "worse"
	default:
		v.Verdict = "same"
	}
	return v
}

// readRecords loads a JSON-lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// judged is one workload's verdict on one metric.
type judged struct {
	Workload string
	verdict
}

// compareRecords judges every bounded metric of every workload both run
// sets measured, in workload then metric declaration order.
func compareRecords(a, b []record) []judged {
	var out []judged
	for _, w := range workloads {
		for _, def := range append(append([]metricDef(nil), endToEnd...), workloadMetrics...) {
			av, bv := metricValues(a, w.Name, def.Name), metricValues(b, w.Name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			out = append(out, judged{w.Name, judge(def, av, bv)})
		}
	}
	return out
}

// metricValues lists a metric's values over a workload's records, in
// file order.
func metricValues(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain implements `govbench compare A.jsonl B.jsonl`: it exits 1
// when any metric is worse, 0 otherwise.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: govbench compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "govbench:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "govbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-12s %-14s %5s %12s %12s %8s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "bound", "A median", "A IQR", "A rIQR", "B median", "B IQR", "B rIQR", "wins", "verdict")
	code := 0
	for _, v := range compareRecords(a, b) {
		fmt.Fprintf(stdout, "%-12s %-14s %5.2f %12.5g %12.5g %8.4f %12.5g %12.5g %8.4f %3d/%-3d  %s\n",
			v.Workload, v.Def.Name, v.Def.Bound,
			v.A.Median, v.A.Q3-v.A.Q1, v.A.RelIQR, v.B.Median, v.B.Q3-v.B.Q1, v.B.RelIQR,
			v.Wins, v.Pairs, v.Verdict)
		if v.Verdict == "worse" {
			code = 1
		}
	}
	return code
}
