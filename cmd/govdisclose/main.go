// Command govdisclose runs the §7.2 responsible-disclosure campaign against
// the synthetic world: it scans, builds per-country vulnerability reports,
// emails the registrars, then applies the remediation model and measures
// notification effectiveness two months later (§7.2.2).
//
// Usage:
//
//	govdisclose [-seed 42] [-scale 1.0] [-journal path [-resume]]
//
// With -journal, the initial worldwide scan checkpoints to <path> and the
// two-months-later follow-up scan to <path>.followup; re-running with
// -resume continues either scan from the last completed host. The
// follow-up re-probes only the hosts the remediation changed (plus hosts
// behind transient faults), so <path>.followup holds just those.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/notify"
	"repro/internal/report"
	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	journal := flag.String("journal", "", "JSON-lines checkpoint journal path")
	resume := flag.Bool("resume", false, "resume from an existing -journal instead of starting fresh")
	flag.Parse()

	study, err := core.NewStudy(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "govdisclose:", err)
		os.Exit(1)
	}
	if *journal != "" {
		if err := study.SetCheckpoint(*journal, *resume); err != nil {
			fmt.Fprintln(os.Stderr, "govdisclose:", err)
			os.Exit(1)
		}
	}
	ctx := context.Background()

	before := study.Worldwide(ctx)
	study.CloseCheckpoint()
	reports := notify.BuildReports(before, nil)
	campaign := notify.Campaign(reports, study.Rand("disclosure"))
	fmt.Print(report.Campaign(campaign))
	fmt.Println()

	if *journal != "" {
		if err := study.SetCheckpoint(*journal+".followup", *resume); err != nil {
			fmt.Fprintln(os.Stderr, "govdisclose:", err)
			os.Exit(1)
		}
	}
	_, after, _ := study.Remediate(ctx, study.Rand("remediation"))
	if err := study.CloseCheckpoint(); err != nil {
		fmt.Fprintln(os.Stderr, "govdisclose:", err)
		os.Exit(1)
	}
	eff, err := notify.MeasureEffectiveness(before, after)
	if err != nil {
		fmt.Fprintln(os.Stderr, "govdisclose:", err)
		os.Exit(1)
	}
	fmt.Print(report.Effectiveness(eff))
}
