package analysis

import (
	"sort"
	"time"

	"repro/internal/resultset"
)

// KeyCell is one bar of Figures 4/9/12: hosts grouped by host key or CA
// signing algorithm (or the combination), with validity.
type KeyCell struct {
	// Label identifies the group, e.g. "RSA-2048", "sha1WithRSAEncryption"
	// or "RSA-2048 / ecdsa-with-SHA256".
	Label string
	Total int
	Valid int
}

// ValidPct is the share of valid hosts in the cell.
func (c KeyCell) ValidPct() float64 { return pct(c.Valid, c.Total) }

// KeyAlgoMatrix carries the three panels of Figure 4.
type KeyAlgoMatrix struct {
	// ByHostKey groups by host public key type and size (panel 1).
	ByHostKey []KeyCell
	// BySigAlgo groups by CA signing algorithm (panel 2).
	BySigAlgo []KeyCell
	// Combined groups by host key x signing algorithm (panel 3).
	Combined []KeyCell
}

// ComputeKeyAlgoMatrix reads the set's chain cells, sorted by total
// descending (then label) for rendering.
func ComputeKeyAlgoMatrix(set *resultset.Set) KeyAlgoMatrix {
	return KeyAlgoMatrix{
		ByHostKey: sortCells(set.HostKeyCells()),
		BySigAlgo: sortCells(set.SigAlgoCells()),
		Combined:  sortCells(set.CombinedCells()),
	}
}

func sortCells(cells []resultset.Cell) []KeyCell {
	out := make([]KeyCell, len(cells))
	for i, c := range cells {
		out[i] = KeyCell{Label: c.Label, Total: c.Total, Valid: c.Valid}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Cell finds a cell by label.
func Cell(cells []KeyCell, label string) (KeyCell, bool) {
	for _, c := range cells {
		if c.Label == label {
			return c, true
		}
	}
	return KeyCell{}, false
}

// DurationStats reproduces §5.3.1 and Figures 3/10: certificate lifetimes
// for valid vs invalid certificates.
type DurationStats struct {
	ValidLifetimes   []time.Duration
	InvalidLifetimes []time.Duration
	// InvalidOver3y counts invalid certificates issued for more than three
	// years.
	InvalidOver3y int
	// InvalidUnder2y counts invalid certificates with lifetimes below two
	// years (the paper: only 32%).
	InvalidUnder2y int
	// Decades counts invalid certificates issued for exactly 10/20/30/50/
	// 100 years.
	Decades map[int]int
	// Mult365 counts invalid lifetimes that are exact multiples of 365
	// days (the paper: 43.24%).
	Mult365 int
	// EpochCerts counts certificates with a 1970 issue date.
	EpochCerts int
}

// ComputeDurationStats aggregates certificate lifetimes over the chained
// index, in scan input order.
func ComputeDurationStats(set *resultset.Set) DurationStats {
	s := DurationStats{Decades: make(map[int]int)}
	const day = 24 * time.Hour
	for _, i := range set.Chained() {
		r := set.At(i)
		leaf := r.Chain[0]
		life := leaf.ValidityDuration()
		if r.Verify.Valid() {
			s.ValidLifetimes = append(s.ValidLifetimes, life)
			continue
		}
		s.InvalidLifetimes = append(s.InvalidLifetimes, life)
		days := int(life / day)
		if days > 3*365 {
			s.InvalidOver3y++
		}
		if days < 2*365 {
			s.InvalidUnder2y++
		}
		for _, years := range []int{10, 20, 30, 50, 100} {
			if days == years*365 {
				s.Decades[years]++
			}
		}
		if days > 0 && days%365 == 0 {
			s.Mult365++
		}
		if leaf.NotBefore.Year() == 1970 {
			s.EpochCerts++
		}
	}
	return s
}

// MaxLifetime returns the longest lifetime in the set.
func MaxLifetime(lifetimes []time.Duration) time.Duration {
	var max time.Duration
	for _, l := range lifetimes {
		if l > max {
			max = l
		}
	}
	return max
}

// VersionCell counts hosts by negotiated TLS version (§5.3's 12.7% of
// hosts negotiating pre-SSLv3 protocols motivates tracking this).
type VersionCell struct {
	Version string
	Total   int
	Valid   int
}

// ComputeVersionBreakdown reads the set's per-version cells (https
// attempts only, with "(no handshake)" for protocol-layer failures),
// sorted by total descending then version.
func ComputeVersionBreakdown(set *resultset.Set) []VersionCell {
	cells := set.VersionCells()
	out := make([]VersionCell, len(cells))
	for i, c := range cells {
		out[i] = VersionCell{Version: c.Label, Total: c.Total, Valid: c.Valid}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Version < out[j].Version
	})
	return out
}
