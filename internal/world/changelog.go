package world

import (
	"math/rand"
	"sync"
	"time"
)

// ChangeKind classifies one world mutation that can dirty a cached scan
// result — the event vocabulary the continuous observatory consumes.
type ChangeKind int

const (
	// CertRotated means a fresh certificate chain was deployed on the
	// host (ACME renewal, churn rotation, or an operator redeploy).
	CertRotated ChangeKind = iota
	// SiteFixed means remediation reissued a valid certificate and
	// cleared the host's faults (§7.2.2 "fixed" population).
	SiteFixed
	// SiteRemoved means the host went off the Internet.
	SiteRemoved
	// SiteRevived means a previously unreachable hostname came online.
	SiteRevived
	// GainedHTTPS means an http-only host started serving https.
	GainedHTTPS
	// ConfigFlipped means the serving configuration changed without a
	// reissue (redirect posture flip).
	ConfigFlipped
)

var changeKindNames = map[ChangeKind]string{
	CertRotated:   "cert-rotated",
	SiteFixed:     "site-fixed",
	SiteRemoved:   "site-removed",
	SiteRevived:   "site-revived",
	GainedHTTPS:   "gained-https",
	ConfigFlipped: "config-flipped",
}

// String names the change kind.
func (k ChangeKind) String() string { return changeKindNames[k] }

// Change is one entry in the world's append-only change log.
type Change struct {
	// At is the virtual time of the change.
	At time.Time
	// Hostname is the affected host.
	Hostname string
	// Kind classifies the change.
	Kind ChangeKind
}

// changeLog is the append-only event record behind ChangeTail. It is
// mutex-guarded because the observatory tails it while world mutators
// (the ACME fleet, churn ticks) keep appending.
type changeLog struct {
	mu  sync.RWMutex
	log []Change
}

// recordChange appends one event to the world's change log.
func (w *World) recordChange(at time.Time, hostname string, kind ChangeKind) {
	w.changes.mu.Lock()
	w.changes.log = append(w.changes.log, Change{At: at, Hostname: hostname, Kind: kind})
	w.changes.mu.Unlock()
}

// ChangeTail returns the change events recorded at or after cursor, plus
// the advanced cursor — the same contract as ctlog.Log.TailFrom, so
// consumers follow world churn incrementally:
//
//	events, cursor = w.ChangeTail(cursor)
//
// A cursor of 0 reads from the first event; because the log is
// append-only, successive tails never miss or repeat one.
func (w *World) ChangeTail(cursor int) ([]Change, int) {
	w.changes.mu.RLock()
	defer w.changes.mu.RUnlock()
	n := len(w.changes.log)
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= n {
		return nil, n
	}
	out := make([]Change, n-cursor)
	copy(out, w.changes.log[cursor:])
	return out, n
}

// ChurnTick applies one observatory tick's worth of background churn to
// the government estate, deterministically from the caller's RNG: up to
// n distinct hosts are drawn; https hosts rotate to a freshly issued
// valid chain (logged to CT and recorded as CertRotated), hosts serving
// both schemes may instead flip their redirect posture (recorded as
// ConfigFlipped). Returns the touched hostnames in draw order.
func (w *World) ChurnTick(r *rand.Rand, at time.Time, n int) []string {
	f := newCertFactory(w, rand.New(rand.NewSource(r.Int63())))
	touched := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		h := w.GovHosts[r.Intn(len(w.GovHosts))]
		if seen[h] {
			continue
		}
		s, ok := w.Sites[h]
		if !ok || !s.IP.IsValid() {
			continue
		}
		seen[h] = true
		flip := r.Float64() < 0.3
		switch {
		case flip && s.Serving == BothRedirect:
			s.Serving = BothNoRedirect
			w.serveSite(s)
			w.recordChange(at, h, ConfigFlipped)
		case flip && s.Serving == BothNoRedirect:
			s.Serving = BothRedirect
			w.serveSite(s)
			w.recordChange(at, h, ConfigFlipped)
		case s.Serving.HasHTTPS():
			// Fresh issuance close to the tick time, deployed through the
			// same rotation path the ACME fleet uses.
			saved := w.ScanTime
			w.ScanTime = at
			f.configure(s, ClassValid, caMixWorldwide)
			w.ScanTime = saved
			w.RotateCert(h, s.Chain)
		default:
			// http-only or unavailable hosts have nothing to rotate; the
			// draw still consumed the slot so tick sizes stay bounded.
			seen[h] = false
		}
		if seen[h] {
			touched = append(touched, h)
		}
	}
	return touched
}
