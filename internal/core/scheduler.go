package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// SuiteOptions configures RunAllExperiments.
type SuiteOptions struct {
	// Jobs bounds the worker pool running independent experiments and the
	// concurrent dataset pre-warm. Zero means GOMAXPROCS; one (or less)
	// runs the plain sequential loop.
	//
	// Determinism: rendered output is assembled strictly in registry
	// order, so for fault-free worlds (Flakiness 0 — the golden-file
	// configuration) any Jobs value produces byte-identical output. Under
	// injected flakiness the simnet's per-endpoint dial ordinals depend on
	// scan interleaving, so reproducible flaky runs need Jobs <= 1.
	//
	// Effective parallelism: on a single-CPU host (GOMAXPROCS==1) the
	// concurrent scheduler can only lose to the sequential loop it
	// replaced — goroutine switches and pool coordination buy nothing
	// when there is one runner — so any Jobs value falls back to the
	// sequential path there unless ForceParallel is set.
	Jobs int
	// ForceParallel runs the concurrent scheduler even where the
	// effective-parallelism policy would fall back to the sequential
	// loop. Tests use it to exercise the pool on single-CPU CI; the
	// benchmark uses it to record the forced-parallel number honestly
	// next to the policy number.
	ForceParallel bool
}

// SuiteResult is one experiment's rendered artifact.
type SuiteResult struct {
	ID     string
	Title  string
	Output string
}

// RunAllExperiments runs the full registry and returns the artifacts in
// registry order. Independent experiments run concurrently on a bounded
// worker pool after their declared datasets are pre-warmed through the
// single-flight registry; world-mutating experiments (S722, E4) run alone
// as barriers. The first error, in registry order, aborts the suite:
// experiments past the failed one's segment never start (matching the
// sequential loop's fail-fast), and the successfully rendered prefix is
// returned alongside the error.
func RunAllExperiments(ctx context.Context, s *Study, opts SuiteOptions) ([]SuiteResult, error) {
	jobs := opts.Jobs
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// Effective-parallelism policy: with a single CPU the pool cannot
	// beat the sequential loop (BENCH_scan.json records the forced pool
	// against it as report_suite.forced_speedup_vs_sequential), so don't
	// pretend otherwise.
	if runtime.GOMAXPROCS(0) == 1 && !opts.ForceParallel {
		jobs = 1
	}
	exps, _ := registry()
	results := make([]SuiteResult, 0, len(exps))

	if jobs <= 1 {
		for i := range exps {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			out, err := exps[i].Run(ctx, s)
			if err != nil {
				return results, fmt.Errorf("%s: %w", exps[i].ID, err)
			}
			results = append(results, SuiteResult{ID: exps[i].ID, Title: exps[i].Title, Output: out})
		}
		return results, nil
	}

	// Split the registry into segments at the world mutators: a mutator is
	// a one-experiment segment, everything between mutators runs as one
	// concurrent batch.
	for lo := 0; lo < len(exps); {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		hi := lo
		if exps[lo].MutatesWorld {
			hi = lo + 1
		} else {
			for hi < len(exps) && !exps[hi].MutatesWorld {
				hi++
			}
		}
		seg := exps[lo:hi]
		if err := s.warmDatasets(ctx, seg, jobs); err != nil {
			return results, err
		}
		outputs := make([]string, len(seg))
		errs := make([]error, len(seg))
		runSegment(ctx, s, seg, jobs, outputs, errs)
		for i := range seg {
			if errs[i] != nil {
				return results, fmt.Errorf("%s: %w", seg[i].ID, errs[i])
			}
			results = append(results, SuiteResult{ID: seg[i].ID, Title: seg[i].Title, Output: outputs[i]})
		}
		lo = hi
	}
	return results, nil
}

// runSegment executes one segment's experiments on a bounded pool,
// writing each artifact into its registry slot.
func runSegment(ctx context.Context, s *Study, seg []Experiment, jobs int, outputs []string, errs []error) {
	if len(seg) == 1 {
		outputs[0], errs[0] = seg[0].Run(ctx, s)
		return
	}
	if jobs > len(seg) {
		jobs = len(seg)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outputs[i], errs[i] = seg[i].Run(ctx, s)
			}
		}()
	}
	for i := range seg {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// warmDatasets resolves the distinct datasets a segment declares and
// warms the warmable ones concurrently (bounded by jobs) through the
// single-flight registry, so the segment's experiments start against hot
// caches instead of serializing on first-use scans. The warm phase
// completes before any experiment starts: sharing one pool between warm
// tasks and the experiments waiting on them could deadlock.
func (s *Study) warmDatasets(ctx context.Context, seg []Experiment, jobs int) error {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for i := range seg {
		for _, n := range seg[i].Datasets {
			switch n {
			case "usa:*":
				for _, ds := range s.World.USA.Datasets {
					add("usa:" + ds.Key)
				}
			case "crawl", "ct":
				// Not warmable: the crawl is the experiment's own measured
				// workload and the CT log is built with the world.
			default:
				add(n)
			}
		}
	}
	if len(names) == 0 {
		return nil
	}
	if jobs > len(names) {
		jobs = len(names)
	}
	errs := make([]error, len(names))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if names[i] == "linkgraph" {
					s.LinkGraph()
					continue
				}
				_, errs[i] = s.datasets.Get(ctx, names[i])
			}
		}()
	}
	for i := range names {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("warming %s: %w", names[i], err)
		}
	}
	return nil
}
