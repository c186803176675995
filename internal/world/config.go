package world

import "time"

// Config controls world generation.
type Config struct {
	// Seed drives every random choice; identical seeds yield identical
	// worlds.
	Seed int64
	// Scale multiplies the paper's population counts. 1.0 reproduces the
	// full 135,408-hostname study; tests use small fractions.
	Scale float64
	// Flakiness is the fraction of reachable https sites given transient
	// faults: their 443 endpoint fails the first one or two dials (plus
	// injected dial latency on some) before serving normally, exercising
	// the scanner's retry/backoff machinery the way the real Internet's
	// long tail does (§4.2.3). Sites recover within the paper's 3-retry
	// budget, so Table 2 aggregates are unchanged. Zero disables.
	Flakiness float64
}

// Paper-scale reference times.
var (
	// DefaultScanTime matches the paper's measurement window (§4.2.3).
	DefaultScanTime = time.Date(2020, 4, 22, 0, 0, 0, 0, time.UTC)
	// FollowUpScanTime is the two-months-later notification-effectiveness
	// scan (§7.2.2).
	FollowUpScanTime = time.Date(2020, 6, 26, 0, 0, 0, 0, time.UTC)
)

// DefaultConfig is the full-scale paper reproduction.
func DefaultConfig() Config {
	return Config{Seed: 42, Scale: 1.0}
}

// TestConfig is a small world for unit tests: every population is present
// but three orders of magnitude cheaper to build. The seed is chosen so
// even the rarest injected error classes get at least one site at this
// scale.
func TestConfig() Config {
	return Config{Seed: 74, Scale: 0.02}
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

// Paper-scale population constants (§1, §4, §6, Appendix A).
const (
	paperWorldwideHosts   = 135408 // unique government hostnames considered
	paperUnreachableHosts = 47458  // registered names that never returned 200
	paperSeedHosts        = 27532  // merged top-million-derived seed list
	paperTrancoGovOverlap = 12293  // gov hostnames inside the Tranco million
	paperROKHosts         = 21818  // Government24 hostname database
	paperTopMillion       = 1000000
)
