package world

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/simnet"
	"repro/internal/tlssim"
)

// RemediationRates tunes the post-disclosure churn of §7.2.2.
type RemediationRates struct {
	// Fix is the probability an invalid host gets its certificate fixed
	// (paper: 1,263 of 15,179 ≈ 8.3%).
	Fix float64
	// Remove is the probability a previously invalid host disappears
	// (paper: 1,572 of 15,179 ≈ 10.4%).
	Remove float64
	// PerCountryFix overrides Fix for specific countries (the 7 countries
	// with >40% improvement).
	PerCountryFix map[string]float64
}

// DefaultRemediationRates mirrors the paper's observed effectiveness.
func DefaultRemediationRates() RemediationRates {
	return RemediationRates{
		Fix:    0.083,
		Remove: 0.104,
		PerCountryFix: map[string]float64{
			// §7.2.2: Bahrain, Burkina Faso, Cuba, Honduras, Portugal,
			// Libya and Vietnam improved by more than 40%.
			"bh": 0.45, "bf": 0.45, "cu": 0.45, "hn": 0.45,
			"pt": 0.45, "ly": 0.45, "vn": 0.45,
		},
	}
}

// RemediationOutcome records what changed between the scans.
type RemediationOutcome struct {
	Fixed   []string
	Removed []string
	// NewlyServingHosts lists the http-only hosts that gained valid or
	// broken https.
	NewlyServingHosts []string
	// RevivedValid / RevivedInvalid count previously unreachable hosts now
	// serving valid / invalid https.
	RevivedValid   int
	RevivedInvalid int
}

// ChangedHosts returns every hostname whose scan result may differ after
// the remediation — the partial-invalidation set for cached datasets.
// Hosts left broken kept their certificates, and revived hosts are
// excluded because the unreachable population is never part of a scanned
// corpus (GovHosts and UnreachableHosts are disjoint).
func (o *RemediationOutcome) ChangedHosts() []string {
	out := make([]string, 0, len(o.Fixed)+len(o.Removed)+len(o.NewlyServingHosts))
	out = append(out, o.Fixed...)
	out = append(out, o.Removed...)
	out = append(out, o.NewlyServingHosts...)
	return out
}

// Remediate mutates the world as the §7.2.2 follow-up scan found it two
// months after disclosure: some invalid hosts fixed their certificates,
// some disappeared, most stayed broken; some http-only hosts adopted https;
// a slice of the unreachable population came alive.
func (w *World) Remediate(invalidHosts []string, rates RemediationRates, r *rand.Rand) RemediationOutcome {
	f := newCertFactory(w, rand.New(rand.NewSource(r.Int63())))
	var out RemediationOutcome
	for _, h := range invalidHosts {
		s, ok := w.Sites[h]
		if !ok {
			continue
		}
		fixP := rates.Fix
		if p, ok := rates.PerCountryFix[s.Country]; ok {
			fixP = p
		}
		switch x := r.Float64(); {
		case x < fixP:
			w.fixSite(s, f)
			out.Fixed = append(out.Fixed, h)
		case x < fixP+rates.Remove:
			w.removeSite(s)
			out.Removed = append(out.Removed, h)
		}
	}

	// §7.2.2: 1.15% of http-only hosts now serve valid https and 1.85%
	// invalid https; ~6% of unreachable hosts revive with invalid
	// certificates and ~13.76% with valid ones.
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Serving != HTTPOnly {
			continue
		}
		switch x := r.Float64(); {
		case x < 0.0115:
			s.Serving = BothRedirect
			f.configure(s, ClassValid, caMixWorldwide)
			w.serveSite(s)
			out.NewlyServingHosts = append(out.NewlyServingHosts, h)
			w.recordChange(FollowUpScanTime, h, GainedHTTPS)
		case x < 0.0115+0.0185:
			s.Serving = BothNoRedirect
			f.configure(s, ClassHostnameMismatch, caMixWorldwide)
			w.serveSite(s)
			out.NewlyServingHosts = append(out.NewlyServingHosts, h)
			w.recordChange(FollowUpScanTime, h, GainedHTTPS)
		}
	}
	for _, h := range w.UnreachableHosts {
		if _, exists := w.Sites[h]; exists {
			continue
		}
		switch x := r.Float64(); {
		case x < 0.1376:
			w.reviveSite(h, f, ClassValid, r)
			out.RevivedValid++
		case x < 0.1376+0.06:
			w.reviveSite(h, f, ClassHostnameMismatch, r)
			out.RevivedInvalid++
		}
	}
	return out
}

// fixSite reissues a correct certificate and clears faults and quirks.
func (w *World) fixSite(s *Site, f *certFactory) {
	if s.Fault != simnet.FaultNone {
		w.Net.SetFault(netip.AddrPortFrom(s.IP, 443), simnet.FaultNone)
		s.Fault = simnet.FaultNone
	}
	s.Quirk = tlssim.QuirkNone
	s.TLSMin, s.TLSMax = tlssim.TLS1_0, tlssim.TLS1_2
	// Reissue close to the follow-up scan date.
	saved := w.ScanTime
	w.ScanTime = FollowUpScanTime.Add(-20 * 24 * time.Hour)
	f.configure(s, ClassValid, caMixWorldwide)
	w.ScanTime = saved
	if !s.Serving.HasHTTPS() {
		s.Serving = BothRedirect
	}
	w.serveSite(s)
	w.recordChange(FollowUpScanTime, s.Hostname, SiteFixed)
}

// removeSite takes a host off the Internet.
func (w *World) removeSite(s *Site) {
	w.DNS.Remove(s.Hostname)
	w.Net.Handle(netip.AddrPortFrom(s.IP, 80), nil)
	w.Net.Handle(netip.AddrPortFrom(s.IP, 443), nil)
	w.Net.SetFault(netip.AddrPortFrom(s.IP, 443), simnet.FaultNone)
	s.Serving = Unavailable
	w.recordChange(FollowUpScanTime, s.Hostname, SiteRemoved)
}

// reviveSite brings a previously unreachable hostname online.
func (w *World) reviveSite(host string, f *certFactory, class ErrorClass, r *rand.Rand) {
	ip := w.allocIP("Private")
	s := &Site{Hostname: host, Country: "", IP: ip, Provider: "Private", Serving: BothRedirect}
	f.configure(s, class, caMixWorldwide)
	w.addSite(s)
	w.DNS.Remove(host) // clear any half-registered A records
	w.DNS.AddA(host, ip)
	w.serveSite(s)
	w.recordChange(FollowUpScanTime, host, SiteRevived)
}
