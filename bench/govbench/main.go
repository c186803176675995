// Command govbench is the end-to-end benchmark of the govhttps pipeline:
// it drives four workloads through the layers' public functions, checks
// every output, and prints the end-to-end metrics (or, traced, the
// per-layer metrics) by name with their units. The last line of standard
// output is one JSON object: {"correct","attempted","failed","metrics"}.
//
// Usage:
//
//	govbench -workload study -seed 42 -seconds 20   # one run of one workload
//	govbench -workload serve_read -trace 1          # plus a traced repeat and per-layer metrics
//	govbench -workload observe -trace out.json      # same, trace file at out.json
//	govbench                                        # every workload, one process each
//	govbench -workload study -record runs.jsonl     # also append the full run record
//	govbench compare A.jsonl B.jsonl                # judge run set B against run set A
//
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/simclock"
)

// clock is the benchmark's only source of wall time.
var clock simclock.Real

// config is one run's input.
type config struct {
	Seed    int64
	Seconds float64
	// Scale overrides the workload's default world scale (tests run every
	// workload at a small scale); 0 keeps the default.
	Scale float64
	// Iters, when positive, fixes the iteration count of the iterating
	// workloads instead of Seconds: the traced repeat runs exactly as
	// many iterations as the untraced run it is compared with.
	Iters int
}

var inf = math.Inf(1)

//go:embed testdata/digests.txt
var digestsFile string

// goldenDigest returns the recorded sha256 of a workload's checked output
// for (seed, scale), if one is recorded in testdata/digests.txt.
func goldenDigest(workload string, seed int64, scale float64) (string, bool) {
	for _, line := range strings.Split(digestsFile, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(f[0], "#") || f[0] != workload {
			continue
		}
		s, err1 := strconv.ParseInt(f[1], 10, 64)
		sc, err2 := strconv.ParseFloat(f[2], 64)
		if err1 == nil && err2 == nil && s == seed && sc == scale {
			return f[3], true
		}
	}
	return "", false
}

// scaleOr returns the configured scale, or def when none is set.
func (c config) scaleOr(def float64) float64 {
	if c.Scale > 0 {
		return c.Scale
	}
	return def
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name  string
	Why   string
	Scale float64
	Run   func(ctx context.Context, cfg config, tr *tracer) (*outcome, error)
}

// workloads in the order a full run executes them.
var workloads = []workload{
	{Name: "study", Scale: 0.1, Run: runStudy,
		Why: "the paper's whole pipeline as govreport -all runs it: world, scans, index builds, 36 experiments, crawl and renewal fleet"},
	{Name: "serve_read", Scale: 0.2, Run: runServeRead,
		Why: "steady-state govserve reads over a static dataset: response-cache hits plus streaming exports, no scan work"},
	{Name: "serve_churn", Scale: 0.2, Run: runServeChurn,
		Why: "the same reads beside a writer that churns the world and patches the dataset once per 3500 reads: cache fills, evictions, ApplyDelta"},
	{Name: "observe", Scale: 0.1, Run: runObserve,
		Why: "the continuous observatory: CT and change tails, priority queue, token bucket, small-batch rescans, per-tick ApplyDelta"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one execution of a workload measured.
type outcome struct {
	Setups []float64 // seconds per set-up repetition
	// Ops holds each operation's latency in seconds; failed operations
	// are +Inf.
	Ops []float64
	// OK counts successful operations; Measured is the measured phase's
	// length in seconds (ops_per_s = OK/Measured).
	OK       int
	Measured float64
	// Attempted and Failed count operations plus output checks; every
	// failed check also lands in Failures.
	Attempted, Failed int64
	Failures          []string
	// Extra holds workload-specific metrics: end-to-end ones always,
	// per-layer ones on traced runs.
	Extra []metric
	// Layers holds the per-layer metrics (traced runs only).
	Layers []metric
	// Probe is the time spent in traced-only probe spans, excluded from
	// the trace gap.
	Probe float64
	// Digest identifies the run's checked output (transcript or report),
	// so a traced repeat can be compared with the untraced run.
	Digest string
}

// collectPrevious runs a garbage collection before every set-up but the
// first, so the previous iteration's world is gone before the next one is
// built: peak RSS then reflects one set-up and its operation, as one
// govreport, govserve or govwatch process would hold, instead of when the
// collector happened to run between the benchmark's repetitions.
func collectPrevious(iteration int) {
	if iteration > 0 {
		runtime.GC()
	}
}

// check records one output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs the benchmark and returns the exit code.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("govbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, one process each)")
	seed := fs.Int64("seed", 42, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	traceArg := fs.String("trace", "0", `"1" or a file path: repeat the run traced and report per-layer metrics`)
	record := fs.String("record", "", "append the run's full record (every metric) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "govbench: -seconds must be positive")
		return 2
	}
	if *name == "" {
		return runEach(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "govbench: unknown workload %q\n", *name)
		return 2
	}
	tracePath := ""
	switch *traceArg {
	case "", "0":
	case "1":
		tracePath = filepath.Join(".bench_build", "trace-"+w.Name+"-"+strconv.FormatInt(*seed, 10)+".json")
	default:
		tracePath = *traceArg
	}
	cfg := config{Seed: *seed, Seconds: *seconds}
	rec, err := execute(context.Background(), w, cfg, tracePath, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "govbench:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, rec); err != nil {
			fmt.Fprintln(stderr, "govbench:", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runEach re-executes this binary once per workload, one after another,
// so each workload's peak RSS is its own.
func runEach(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "govbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "govbench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// record is one run's full result: what the result line carries plus the
// run's identity and every metric measured.
type record struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Scale      float64          `json:"scale"`
	Traced     bool             `json:"traced"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload (and, with a trace path, its traced repeat),
// prints every metric and the result line, and returns the record. A
// traced invocation gives each of its two runs half of cfg.Seconds, so it
// costs about what an untraced one does.
func execute(ctx context.Context, w workload, cfg config, tracePath string, stdout io.Writer) (*record, error) {
	scale := cfg.scaleOr(w.Scale)
	fmt.Fprintf(stdout, "govbench workload=%s seed=%d seconds=%g scale=%g gomaxprocs=%d nproc=%d traced=%v\n",
		w.Name, cfg.Seed, cfg.Seconds, scale, runtime.GOMAXPROCS(0), runtime.NumCPU(), tracePath != "")
	if tracePath != "" {
		cfg.Seconds /= 2
	}

	start := clock.Now()
	out, err := w.Run(ctx, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	wall := clock.Now().Sub(start).Seconds()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}

	ms := make([]float64, len(out.Ops))
	for i, v := range out.Ops {
		ms[i] = v * 1e3
	}
	lat := summarizeLatency(ms)
	opsPerS := float64(out.OK) / out.Measured
	e2e := []metric{
		{"setup_s", medianOf(out.Setups), "s"},
		{"op_p50_ms", lat.P50, "ms"},
		{"op_tail_ms", lat.Tail, "ms"},
		{"ops_per_s", opsPerS, "1/s"},
		{"peak_rss_mb", rss, "MB"},
	}
	fmt.Fprintf(stdout, "# %d ops: op_tail_ms is their p%g; setup_s is the median of %d set-ups\n",
		lat.N, lat.TailPct, len(out.Setups))

	rec := &record{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Attempted: out.Attempted, Failed: out.Failed,
		Metrics: map[string]value{},
	}
	failures := out.Failures
	result := e2e
	all := append(append(append([]metric(nil), e2e...), aliases(w.Name, lat, opsPerS)...), out.Extra...)

	if tracePath != "" {
		tr := newTracer()
		tcfg := cfg
		tcfg.Iters = len(out.Setups)
		tout, err := w.Run(ctx, tcfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		// The traced wall time runs to the end of the last span: the
		// workload's own derivation of per-layer numbers afterwards is not
		// part of the run it measures.
		spans := tr.snapshot()
		var last int64
		for _, s := range spans {
			last = max(last, s.End)
		}
		twall := float64(last) / 1e9
		top := float64(topLevelNanos(spans)) / 1e9
		gap := twall - tout.Probe - wall
		rec.Traced = true
		rec.Attempted += tout.Attempted
		rec.Failed += tout.Failed
		failures = append(failures, tout.Failures...)
		coverage := top / twall
		rec.Attempted++
		if math.Abs(coverage-1) > 0.02 {
			rec.Failed++
			failures = append(failures, fmt.Sprintf("top-level spans cover %.4f of the traced wall time, want 1±0.02", coverage))
		}
		rec.Attempted++
		if tout.Digest != out.Digest {
			rec.Failed++
			failures = append(failures, "traced run's output differs from the untraced run's")
		}
		tout.Extra = append(tout.Extra,
			metric{"trace_gap_s", gap, "s"},
			metric{"trace.top_coverage", coverage, "ratio"},
			metric{"trace.spans", float64(len(spans)), "count"},
		)
		tout.Extra = append(tout.Extra, selfByLayer(spans)...)
		result = tout.Layers
		all = append(append(all, tout.Layers...), tout.Extra...)
		if err := saveTrace(tracePath, w.Name, spans, all); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# trace: %d spans (request spans sampled 1 in %d) written to %s; open in https://ui.perfetto.dev\n",
			len(spans), sampleEvery, tracePath)
	}
	all = append(all, metric{"error_share", float64(rec.Failed) / float64(rec.Attempted), "ratio"})

	for _, m := range all {
		fmt.Fprintf(stdout, "%-34s %16.6f %s\n", m.Name, m.Value, m.Unit)
		rec.Metrics[m.Name] = value{finite(m.Value), m.Unit}
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, "# FAILED CHECK:", f)
	}
	rec.Correct = len(failures) == 0 && rec.Failed == 0

	declared := endToEnd
	if tracePath != "" {
		declared = perLayer
	}
	line := map[string]any{
		"correct":   rec.Correct,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   resultMetrics(declared, result),
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(b))
	return rec, nil
}

// aliases restates the generic operation metrics under the names a user
// of each workload knows them by (op latency in ms is a 60 µs request on
// serve and a 4 s report on study).
func aliases(workload string, lat latency, opsPerS float64) []metric {
	switch workload {
	case "study":
		return []metric{{"study_s", lat.P50 / 1e3, "s"}}
	case "observe":
		return []metric{{"observe_s", lat.P50 / 1e3, "s"}}
	case "serve_read", "serve_churn":
		return []metric{
			{"serve_qps", opsPerS, "1/s"},
			{"serve_p50_us", lat.P50 * 1e3, "us"},
			{"serve_p" + strconv.FormatFloat(lat.TailPct, 'g', -1, 64) + "_us", lat.Tail * 1e3, "us"},
		}
	}
	return nil
}

// resultMetrics picks the declared metrics, in declaration order, for the
// result line. A declared metric the run did not produce is a bug.
func resultMetrics(declared []metricDef, got []metric) map[string]value {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make(map[string]value, len(declared))
	for _, d := range declared {
		m, ok := byName[d.Name]
		if !ok {
			panic("govbench: workload did not produce declared metric " + d.Name)
		}
		out[d.Name] = value{finite(m.Value), d.Unit}
	}
	return out
}

// finite maps ±Inf (a failed operation in a latency tail) to the largest
// finite float, which JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// saveTrace writes the Chrome trace file, creating its directory.
func saveTrace(path, title string, spans []span, all []metric) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	meta := map[string]any{}
	for _, m := range all {
		meta[m.Name] = finite(m.Value)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, "govbench "+title, spans, meta); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// appendRecord appends rec as one JSON line.
func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
