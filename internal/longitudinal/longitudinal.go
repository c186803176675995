// Package longitudinal implements the monitoring the paper names as future
// work (§4.2.3, §7.1.1): periodic snapshots of the host population and a
// differ that surfaces transitions — sites gaining https, certificates
// breaking or getting fixed, hosts disappearing — the "gaps in https for
// important websites" the authors wanted documented.
package longitudinal

import (
	"fmt"
	"time"

	"repro/internal/resultset"
	"repro/internal/scanner"
)

// State is the per-host condition recorded in a snapshot.
type State int

// Host states, ordered from worst to best.
const (
	// Gone: the host does not resolve or never answers.
	Gone State = iota
	// HTTPOnly: content on plain http only.
	HTTPOnly
	// BrokenHTTPS: https attempted but invalid.
	BrokenHTTPS
	// ValidHTTPS: https fully valid.
	ValidHTTPS
)

var stateNames = map[State]string{
	Gone:        "gone",
	HTTPOnly:    "http-only",
	BrokenHTTPS: "broken-https",
	ValidHTTPS:  "valid-https",
}

// String names the state.
func (s State) String() string { return stateNames[s] }

// Snapshot is one scan reduced to per-host states.
type Snapshot struct {
	// Taken is the scan time.
	Taken time.Time
	// States maps hostname to condition.
	States map[string]State
}

// Capture reduces an indexed scan to a snapshot.
func Capture(taken time.Time, set *resultset.Set) Snapshot {
	s := Snapshot{Taken: taken, States: make(map[string]State, set.Len())}
	for i := 0; i < set.Len(); i++ {
		r := set.At(i)
		s.States[r.Hostname] = stateOf(r)
	}
	return s
}

// stateOf classifies one scanned host.
func stateOf(r *scanner.Result) State {
	switch {
	case !r.Available:
		return Gone
	case r.ValidHTTPS():
		return ValidHTTPS
	case r.HasHTTPS():
		return BrokenHTTPS
	default:
		return HTTPOnly
	}
}

// Changes is the diff between two snapshots, counted in hosts.
type Changes struct {
	// Improved counts hosts that moved toward valid https.
	Improved int
	// Regressed counts hosts that moved away from it.
	Regressed int
	// Appeared counts hosts present only in the later snapshot.
	Appeared int
	// Disappeared counts hosts present only in the earlier snapshot.
	Disappeared int
	// Steady counts hosts with unchanged state.
	Steady int
}

// Diff compares two snapshots.
func Diff(before, after Snapshot) Changes {
	var c Changes
	for host, b := range before.States {
		a, ok := after.States[host]
		switch {
		case !ok:
			c.Disappeared++
		case a == b:
			c.Steady++
		case a > b:
			c.Improved++
		default:
			c.Regressed++
		}
	}
	c.Appeared = len(after.States) - (len(before.States) - c.Disappeared)
	return c
}

// Summary renders the diff as one paragraph.
func (c Changes) Summary() string {
	return fmt.Sprintf("improved %d, regressed %d, appeared %d, disappeared %d, steady %d",
		c.Improved, c.Regressed, c.Appeared, c.Disappeared, c.Steady)
}

// GapReport counts hosts currently below the given state — the "important
// sites without https" view.
func GapReport(s Snapshot, below State) int {
	n := 0
	for _, st := range s.States {
		if st < below {
			n++
		}
	}
	return n
}
