// Command govwatch runs the CT-based monitoring of §7.3.2/§8.2: audit the
// log's coverage of government certificates, verify Merkle proofs against
// the tree head, and sweep the log for lookalike registrations imitating
// government hostnames.
//
// With -observe it runs the continuous observatory instead: a baseline
// scan of the government corpus, then a churn-driven loop that tails the
// CT log and the world's change events into a priority re-scan queue,
// patches the result set incrementally, and prints the adoption
// trajectory the periodic snapshots trace.
//
// Usage:
//
//	govwatch [-seed 42] [-scale 1.0] [-max 20]
//	govwatch -observe [-seed 42] [-scale 0.1] [-days 30] [-churn 25] [-workers 16]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/certwatch"
	"repro/internal/ctlog"
	"repro/internal/observatory"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	max := flag.Int("max", 20, "findings to print")
	observe := flag.Bool("observe", false, "run the continuous observatory loop")
	days := flag.Int("days", 30, "observatory horizon in virtual days")
	churn := flag.Int("churn", 25, "background churn per tick (hosts)")
	workers := flag.Int("workers", 16, "re-scan concurrency")
	flag.Parse()

	w, err := world.Build(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "govwatch:", err)
		os.Exit(1)
	}

	if *observe {
		runObservatory(w, *seed, *days, *churn, *workers, *max)
		return
	}

	log := w.CT
	cov := log.MeasureCoverage(w.GovLeafCerts())
	fmt.Printf("CT log %q: %d entries\n", log.Name(), log.Size())
	fmt.Printf("government-certificate coverage: %d/%d (%.1f%%)\n", cov.Logged, cov.Total, cov.Pct())

	// Audit the head before trusting anything the log says.
	size := log.Size()
	if size >= 2 {
		root := log.Root()
		proof, err := log.InclusionProof(size-1, size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "govwatch:", err)
			os.Exit(1)
		}
		entry := log.Entries()[size-1]
		ok := ctlog.VerifyInclusion(root, ctlog.LeafHash(entry.Cert.Encode()), size-1, size, proof)
		fmt.Printf("latest-entry inclusion proof: verified=%v\n\n", ok)
	}

	watcher := certwatch.NewWatcher(w.GovHosts)
	matches := watcher.ScanLog(log)
	fmt.Printf("lookalike certificates flagged: %d\n", len(matches))
	for i, m := range matches {
		if i >= *max {
			fmt.Printf("... %d more\n", len(matches)-*max)
			break
		}
		fmt.Printf("  %-30s imitates %-30s (%s)\n", m.Candidate, m.Target, m.Rule)
	}
}

// runObservatory takes the baseline scan and drives the continuous loop.
func runObservatory(w *world.World, seed int64, days, churn, workers, max int) {
	fmt.Printf("baseline scan: %d government hosts\n", len(w.GovHosts))
	s := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	raw := s.ScanAll(context.Background(), w.GovHosts)
	base := resultset.New(raw, resultset.Options{CountryOf: w.CountryOf})

	o := observatory.New(w, base, observatory.Config{
		Seed:         seed,
		Horizon:      time.Duration(days) * 24 * time.Hour,
		Workers:      workers,
		ChurnPerTick: churn,
	})
	rep, err := o.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "govwatch:", err)
		os.Exit(1)
	}

	fmt.Printf("observed %d virtual days in %d ticks: %d re-scans, %d still queued\n",
		days, len(rep.Ticks), rep.TotalScanned(), rep.Final().Deferred)
	fmt.Printf("lookalike alerts from the CT tail: %d\n", len(rep.Alerts))
	for i, m := range rep.Alerts {
		if i >= max {
			fmt.Printf("... %d more\n", len(rep.Alerts)-max)
			break
		}
		fmt.Printf("  %-30s imitates %-30s (%s)\n", m.Candidate, m.Target, m.Rule)
	}
	fmt.Printf("\nadoption trajectory (%d samples):\n", len(rep.Trajectory.Points))
	os.Stdout.Write(rep.Trajectory.Bytes())
	fmt.Printf("net valid-https change: %+d hosts\n", rep.Trajectory.AdoptionDelta())
	c := rep.FinalCounts
	fmt.Printf("final: total=%d valid=%d invalid=%d http-only=%d unavailable=%d\n",
		c.Total, c.Valid, c.Invalid, c.HTTPOnly, c.Unavailable)
}
