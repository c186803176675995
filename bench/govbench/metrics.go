package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"

	"repro/internal/resultset"
	"repro/internal/scanner"
)

// metricDef declares one metric. Bound is the share of the parent's
// median by which the metric may worsen before a change counts as a
// regression; per-layer metrics carry none. BENCHMARK.json declares the
// same tables (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload. An "op" is the workload's unit of user-visible work: one
// RunAllExperiments report (study), one HTTP request (serve_read,
// serve_churn), one Observatory.Run (observe).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// workloadMetrics are end-to-end metrics only some workloads have; they
// are printed and recorded (and judged by compare) but stay out of the
// result line, whose metric set is the same for every workload.
var workloadMetrics = []metricDef{
	{Name: "fresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "error_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// perLayer are the layer metrics every workload's traced run reports.
// Workload-specific layer metrics are printed and recorded beside them.
var perLayer = []metricDef{
	{Name: "world.build_s", Unit: "s", Better: "lower"},
	{Name: "world.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "scanner.baseline_s", Unit: "s", Better: "lower"},
	{Name: "scanner.hosts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "scanner.attempts_per_host", Unit: "count", Better: "lower"},
	{Name: "verify.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cert.chain_cache_entries", Unit: "count", Better: "lower"},
	{Name: "resultset.build_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
}

// layerObs gathers what a traced run saw of the layers every workload
// crosses; common turns it into the perLayer metrics.
type layerObs struct {
	worldAlloc []float64 // MB allocated by each world build
	// The scans the scanner.hosts_per_s and attempts_per_host cover.
	scanHosts, scanAttempts int
	scanSeconds             float64
	verifyHits, verifyMiss  int64
	chainEntries            []float64
	runtime                 rtSample // over the measured phase
}

// scanned records one scan of set's hosts that took seconds.
func (o *layerObs) scanned(set *resultset.Set, seconds float64) {
	for i := 0; i < set.Len(); i++ {
		o.scanAttempts += set.At(i).Attempts
	}
	o.scanHosts += set.Len()
	o.scanSeconds += seconds
}

// caches records a scanner's verification and chain cache state.
func (o *layerObs) caches(cfg scanner.Config) {
	hits, misses := cfg.VerifyCache.Stats()
	o.verifyHits += hits
	o.verifyMiss += misses
	o.chainEntries = append(o.chainEntries, float64(cfg.ChainCache.Len()))
}

// common derives the perLayer metrics. baseline names the spans of the
// worldwide baseline scan; world.build and resultset.build spans are
// named alike in every workload.
func (o *layerObs) common(spans []span, baseline string, out *outcome) []metric {
	rt, ops := o.runtime, float64(len(out.Ops))
	gcShare := 0.0
	if rt.TotalCPU > 0 {
		gcShare = rt.GCCPU / rt.TotalCPU
	}
	return []metric{
		{"world.build_s", medianOf(spanDurations(spans, "world.build")), "s"},
		{"world.alloc_mb", medianOf(o.worldAlloc), "MB"},
		{"scanner.baseline_s", medianOf(spanDurations(spans, baseline)), "s"},
		{"scanner.hosts_per_s", float64(o.scanHosts) / o.scanSeconds, "1/s"},
		{"scanner.attempts_per_host", float64(o.scanAttempts) / float64(o.scanHosts), "count"},
		{"verify.cache_hit_ratio", float64(o.verifyHits) / float64(o.verifyHits+o.verifyMiss), "ratio"},
		{"cert.chain_cache_entries", medianOf(o.chainEntries), "count"},
		{"resultset.build_s", medianOf(spanDurations(spans, "resultset.build")), "s"},
		{"runtime.alloc_kb_per_op", rt.AllocBytes / 1e3 / ops, "KB"},
		{"runtime.allocs_per_op", rt.AllocObjects / ops, "count"},
		{"runtime.gc_cycles_per_s", rt.GCCycles / out.Measured, "1/s"},
		{"runtime.gc_cpu_share", gcShare, "ratio"},
	}
}

// metric is one measured value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	AllocBytes, AllocObjects, GCCycles float64
	GCCPU, TotalCPU                    float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime counters.
func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		default:
			return 0
		}
	}
	return rtSample{AllocBytes: v(0), AllocObjects: v(1), GCCycles: v(2), GCCPU: v(3), TotalCPU: v(4)}
}

// since returns the counters accumulated between a and now.
func (a rtSample) since() rtSample {
	b := readRuntime()
	return rtSample{
		AllocBytes:   b.AllocBytes - a.AllocBytes,
		AllocObjects: b.AllocObjects - a.AllocObjects,
		GCCycles:     b.GCCycles - a.GCCycles,
		GCCPU:        b.GCCPU - a.GCCPU,
		TotalCPU:     b.TotalCPU - a.TotalCPU,
	}
}

func (a rtSample) plus(b rtSample) rtSample {
	return rtSample{a.AllocBytes + b.AllocBytes, a.AllocObjects + b.AllocObjects,
		a.GCCycles + b.GCCycles, a.GCCPU + b.GCCPU, a.TotalCPU + b.TotalCPU}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, os.ErrNotExist
}
