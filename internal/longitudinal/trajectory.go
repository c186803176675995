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

// Tally reduces an indexed scan straight to one sample of the adoption
// curve: the same per-host classification as Capture, read from the
// set's maintained Table 2 counts instead of a walk over its rows. The
// two partitions agree because the scanner records a chain only after a
// completed handshake, which sets AttemptsHTTPS and leaves ExcNone: Gone
// is Unavailable, Valid is the valid category, HTTPOnly is HTTP-only,
// and Broken is every other category — Counts.Invalid.
func Tally(taken time.Time, set *resultset.Set) Point {
	c := set.Counts()
	return Point{Taken: taken, Gone: c.Unavailable, HTTPOnly: c.HTTPOnly, Broken: c.Invalid, Valid: c.Valid}
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
