package core

import (
	"context"
	"fmt"
)

// SuiteOptions configures RunAllExperiments. It has no fields: the suite
// is one registry-order loop with nothing to tune. The type stays so the
// RunAllExperiments signature, shared by the govhttps facade and the
// benchmark harness, keeps its shape; callers pass SuiteOptions{}.
type SuiteOptions struct{}

// SuiteResult is one experiment's rendered artifact.
type SuiteResult struct {
	ID     string
	Title  string
	Output string
}

// RunAllExperiments runs the full registry in order and returns the
// artifacts in that order. The first error, or the ctx ending, aborts the
// suite: later experiments never start, and the successfully rendered
// prefix is returned alongside the error.
func RunAllExperiments(ctx context.Context, s *Study, _ SuiteOptions) ([]SuiteResult, error) {
	exps, _ := registry()
	results := make([]SuiteResult, 0, len(exps))
	for i := range exps {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		out, err := exps[i].Run(ctx, s)
		if err == nil {
			// An experiment whose ctx ended mid-run rendered from empty
			// datasets: its output is not a result.
			err = ctx.Err()
		}
		if err != nil {
			return results, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		results = append(results, SuiteResult{ID: exps[i].ID, Title: exps[i].Title, Output: out})
	}
	return results, nil
}
