// Command govrenew runs the §8.1 automated remediation loop: scan the
// worldwide corpus, enroll every host the checklist marks AdoptHTTPS or
// FixCertificate, and drive an ACME renewal fleet over the virtual clock
// until the campaign horizon — printing the per-tick adoption curve, the
// error-class histogram and the terminal long tail.
//
// Usage:
//
//	govrenew [-seed 42] [-scale 1.0] [-days 120] [-tick 24h] [-workers 4]
//	         [-global-limit 0] [-chaos] [-v]
//
// -global-limit caps new orders per 24h window (0 derives a cap that
// spreads the campaign over roughly three weeks); the fleet mirrors the
// cap client-side, so it paces itself instead of harvesting 429s. -chaos
// applies the default fault profile (flaky dials, truncated responses,
// CAA denials) to the enrolled population before the campaign starts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/acme"
	"repro/internal/acmefleet"
	"repro/internal/core"
	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	days := flag.Int("days", 120, "campaign horizon in simulated days")
	tick := flag.Duration("tick", 24*time.Hour, "scheduler tick")
	workers := flag.Int("workers", 4, "order-dispatch concurrency (output is identical at any value)")
	globalLimit := flag.Int("global-limit", 0, "new orders per 24h window (0 = derive from population)")
	chaos := flag.Bool("chaos", false, "inject the default fault profile before the campaign")
	verbose := flag.Bool("v", false, "print every tick instead of every 10th")
	flag.Parse()

	study, err := core.NewStudy(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	start := time.Now() //lint:allow walltime operator telemetry: reports how long the real run took, never feeds results
	set, err := study.Dataset(ctx, "worldwide")
	if err != nil {
		fatal(err)
	}
	enrolled := acmefleet.Enroll(set)
	if len(enrolled) == 0 {
		fatal(fmt.Errorf("nothing to renew: the scan recommends no certificate deployments"))
	}
	if *chaos {
		hosts := make([]string, len(enrolled))
		for i, e := range enrolled {
			hosts[i] = e.Hostname
		}
		out := acmefleet.ApplyChaos(study.World, hosts, *seed)
		fmt.Printf("chaos: %d flaky, %d truncating, %d CAA-denied hosts\n",
			len(out.Flaky), len(out.Truncated), len(out.CAADenied))
	}

	limit := *globalLimit
	if limit <= 0 {
		limit = len(enrolled)/20 + 5
	}
	cfg := acmefleet.Config{
		Seed:    *seed,
		Horizon: time.Duration(*days) * 24 * time.Hour,
		Tick:    *tick,
		Workers: *workers,
		Limits: acme.RateLimits{
			Global:          limit,
			GlobalWindow:    24 * time.Hour,
			PerDomain:       5,
			PerDomainWindow: 7 * 24 * time.Hour,
		},
	}
	fleet := acmefleet.New(study.World, set, cfg)
	rep := fleet.Run(ctx)
	took := time.Since(start) //lint:allow walltime operator telemetry: reports how long the real run took, never feeds results

	fmt.Printf("enrolled %d hosts, global limit %d orders/day\n\n", rep.Enrolled, limit)
	fmt.Println("tick  renewed  parked  denied  pending  attempts  errs(net/chal/rate/caa/key/other)")
	for i, sn := range rep.Snapshots {
		if !*verbose && i%10 != 0 && i != len(rep.Snapshots)-1 {
			continue
		}
		fmt.Printf("%4d  %7d  %6d  %6d  %7d  %8d  %d/%d/%d/%d/%d/%d\n",
			sn.Tick, sn.Renewed, sn.Parked, sn.Denied, sn.Enrolled, sn.Attempts,
			sn.Errors[acmefleet.ErrNetwork], sn.Errors[acmefleet.ErrChallenge],
			sn.Errors[acmefleet.ErrRateLimited], sn.Errors[acmefleet.ErrCAA],
			sn.Errors[acmefleet.ErrKeyReuse], sn.Errors[acmefleet.ErrOther])
	}
	final := rep.Final()
	fmt.Printf("\nfinal: %d/%d renewed (%.1f%%), %d rotations, converged=%v\n",
		final.Renewed, rep.Enrolled, 100*float64(final.Renewed)/float64(rep.Enrolled),
		final.Renewals, rep.Converged())
	var parked, denied int
	for _, h := range rep.Hosts {
		if h.Terminal {
			switch h.State {
			case acmefleet.FleetParked:
				parked++
			case acmefleet.FleetDenied:
				denied++
			default:
				// Terminal is only ever set alongside Parked or Denied.
			}
		}
	}
	fmt.Printf("terminal long tail: %d parked, %d denied\n", parked, denied)
	fmt.Fprintf(os.Stderr, "campaign simulated %d days in %v\n", *days, took.Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "govrenew:", err)
	os.Exit(1)
}
