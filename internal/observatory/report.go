package observatory

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/certwatch"
	"repro/internal/longitudinal"
	"repro/internal/resultset"
)

// TickStat is one tick's bookkeeping.
type TickStat struct {
	Tick int
	// Time is the nominal tick time (start + tick·interval) — never a
	// live clock read.
	Time time.Time
	// CTEntries / Events count the tail growth ingested this tick.
	CTEntries int
	Events    int
	// FreshDirty / ChurnDirty count hosts newly enqueued this tick, by
	// priority class.
	FreshDirty int
	ChurnDirty int
	// Scanned is the admitted batch size; Deferred is the queue depth
	// left behind the token bucket.
	Scanned  int
	Deferred int
	// Alerts is the cumulative lookalike-match count so far.
	Alerts int
	// Snapshotted marks ticks that sampled the adoption trajectory.
	Snapshotted bool
}

// Report is one observatory run's full output.
type Report struct {
	// Corpus is the observed population size.
	Corpus int
	// Ticks holds one entry per tick, in tick order.
	Ticks []TickStat
	// Alerts lists every lookalike match the CT tail surfaced, in
	// ingestion order.
	Alerts []certwatch.Match
	// Trajectory is the adoption curve over the periodic samples.
	Trajectory longitudinal.Trajectory
	// FinalCounts is the patched result set's final tally.
	FinalCounts resultset.Counts
}

// Final returns the last tick's stats (zero value for an empty run).
func (r *Report) Final() TickStat {
	if len(r.Ticks) == 0 {
		return TickStat{}
	}
	return r.Ticks[len(r.Ticks)-1]
}

// TotalScanned sums re-scans across the run.
func (r *Report) TotalScanned() int {
	n := 0
	for _, t := range r.Ticks {
		n += t.Scanned
	}
	return n
}

// Bytes serializes the run canonically — the byte string the determinism
// contract is stated over: two same-seed runs at any worker count must
// produce identical output.
func (r *Report) Bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "corpus=%d ticks=%d scanned=%d alerts=%d\n",
		r.Corpus, len(r.Ticks), r.TotalScanned(), len(r.Alerts))
	for _, t := range r.Ticks {
		fmt.Fprintf(&b, "tick=%03d t=%s ct=%d ev=%d fresh=%d churn=%d scanned=%d deferred=%d alerts=%d snap=%v\n",
			t.Tick, t.Time.UTC().Format(time.RFC3339), t.CTEntries, t.Events,
			t.FreshDirty, t.ChurnDirty, t.Scanned, t.Deferred, t.Alerts, t.Snapshotted)
	}
	b.Write(r.Trajectory.Bytes())
	for _, m := range r.Alerts {
		fmt.Fprintf(&b, "alert candidate=%s target=%s rule=%s\n", m.Candidate, m.Target, m.Rule)
	}
	c := r.FinalCounts
	fmt.Fprintf(&b, "final total=%d unavailable=%d http-only=%d https=%d valid=%d invalid=%d\n",
		c.Total, c.Unavailable, c.HTTPOnly, c.HTTPS, c.Valid, c.Invalid)
	return b.Bytes()
}
