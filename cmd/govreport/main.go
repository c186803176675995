// Command govreport regenerates the paper's tables and figures.
//
// Usage:
//
//	govreport -list                 # show the experiment registry
//	govreport -datasets             # show the dataset registry
//	govreport -exp T2               # one experiment
//	govreport -all                  # every experiment in order
//	govreport -all -scale 0.05      # faster, scaled-down world
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	exp := flag.String("exp", "", "experiment ID (e.g. T2, F7, TA1)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments")
	datasets := flag.Bool("datasets", false, "list the named datasets the experiments scan")
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" && !*all && !*datasets {
		fmt.Fprintln(os.Stderr, "govreport: pass -exp <ID>, -all, -datasets, or -list")
		os.Exit(2)
	}

	study, err := core.NewStudy(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	if *datasets {
		for _, name := range study.DatasetNames() {
			fmt.Println(name)
		}
		return
	}

	if *all {
		results, err := core.RunAllExperiments(ctx, study, core.SuiteOptions{})
		for _, r := range results {
			if werr := report.WriteArtifact(os.Stdout, r.ID, r.Title, r.Output); werr != nil {
				fatal(werr)
			}
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	out, err := core.RunExperiment(ctx, study, *exp)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "govreport:", err)
	os.Exit(1)
}
