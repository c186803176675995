// Package longitudinal implements the monitoring the paper names as future
// work (§4.2.3, §7.1.1): periodic snapshots of the host population and a
// differ that surfaces transitions — sites gaining https, certificates
// breaking or getting fixed, hosts disappearing — the "gaps in https for
// important websites" the authors wanted documented.
package longitudinal

import (
	"fmt"
	"sort"
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

// Transition is one host's state change between snapshots.
type Transition struct {
	Hostname string
	From, To State
}

// Changes is the diff between two snapshots.
type Changes struct {
	// Improved lists hosts that moved toward valid https.
	Improved []Transition
	// Regressed lists hosts that moved away from it.
	Regressed []Transition
	// Appeared lists hosts present only in the later snapshot.
	Appeared []string
	// Disappeared lists hosts present only in the earlier snapshot.
	Disappeared []string
	// Steady counts hosts with unchanged state.
	Steady int
}

// Diff compares two snapshots.
func Diff(before, after Snapshot) Changes {
	var c Changes
	for host, b := range before.States {
		a, ok := after.States[host]
		if !ok {
			c.Disappeared = append(c.Disappeared, host)
			continue
		}
		switch {
		case a == b:
			c.Steady++
		case a > b:
			c.Improved = append(c.Improved, Transition{host, b, a})
		default:
			c.Regressed = append(c.Regressed, Transition{host, b, a})
		}
	}
	for host := range after.States {
		if _, ok := before.States[host]; !ok {
			c.Appeared = append(c.Appeared, host)
		}
	}
	sort.Slice(c.Improved, func(i, j int) bool { return c.Improved[i].Hostname < c.Improved[j].Hostname })
	sort.Slice(c.Regressed, func(i, j int) bool { return c.Regressed[i].Hostname < c.Regressed[j].Hostname })
	sort.Strings(c.Appeared)
	sort.Strings(c.Disappeared)
	return c
}

// Summary renders the diff as one paragraph.
func (c Changes) Summary() string {
	return fmt.Sprintf("improved %d, regressed %d, appeared %d, disappeared %d, steady %d",
		len(c.Improved), len(c.Regressed), len(c.Appeared), len(c.Disappeared), c.Steady)
}

// GapReport lists hosts currently below the given state — the "important
// sites without https" view.
func GapReport(s Snapshot, below State) []string {
	var out []string
	for host, st := range s.States {
		if st < below {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}
