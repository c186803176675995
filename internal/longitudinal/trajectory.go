package longitudinal

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/resultset"
)

// Point is one sample of the adoption curve: the host population's
// state tallies at one instant.
type Point struct {
	// Taken is the sample time.
	Taken time.Time
	// Gone/HTTPOnly/Broken/Valid partition the host population.
	Gone     int
	HTTPOnly int
	Broken   int
	Valid    int
}

// Total is the population size at the sample.
func (p Point) Total() int { return p.Gone + p.HTTPOnly + p.Broken + p.Valid }

// ValidShare is the valid-https fraction in [0,1].
func (p Point) ValidShare() float64 {
	if t := p.Total(); t > 0 {
		return float64(p.Valid) / float64(t)
	}
	return 0
}

// Tally reduces an indexed scan straight to one sample of the adoption
// curve — the same per-host classification as Capture, counted without
// building the hostname map.
func Tally(taken time.Time, set *resultset.Set) Point {
	p := Point{Taken: taken}
	for i := 0; i < set.Len(); i++ {
		switch stateOf(set.At(i)) {
		case Gone:
			p.Gone++
		case HTTPOnly:
			p.HTTPOnly++
		case BrokenHTTPS:
			p.Broken++
		case ValidHTTPS:
			p.Valid++
		}
	}
	return p
}

// Trajectory is the adoption curve, one Point per sample in sample order —
// the longitudinal monitoring the paper names as future work, emitted
// over virtual months by the continuous observatory.
type Trajectory struct {
	Points []Point
}

// AdoptionDelta is the net change in valid-https hosts from the first
// sample to the last (zero for fewer than two samples).
func (t Trajectory) AdoptionDelta() int {
	if len(t.Points) < 2 {
		return 0
	}
	return t.Points[len(t.Points)-1].Valid - t.Points[0].Valid
}

// Bytes serializes the trajectory canonically, one sample per line.
func (t Trajectory) Bytes() []byte {
	var b bytes.Buffer
	for i, p := range t.Points {
		fmt.Fprintf(&b, "sample=%03d t=%s gone=%d http-only=%d broken=%d valid=%d\n",
			i, p.Taken.UTC().Format(time.RFC3339), p.Gone, p.HTTPOnly, p.Broken, p.Valid)
	}
	return b.Bytes()
}
