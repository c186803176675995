// Package notify implements the responsible-disclosure campaign of §7.2:
// building per-country vulnerability reports, a registrar model that stands
// in for the paper's whois contact lookups, the email
// delivery/bounce/acknowledgement accounting, the population-rank response
// pattern of Figure 13, and the two-month effectiveness measurement of
// §7.2.2.
package notify

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geo"
	"repro/internal/resultset"
)

// ResponseKind classifies a registrar's reaction to the report.
type ResponseKind int

// Registrar reactions observed in the study.
const (
	// NoResponse: the report was delivered but never answered.
	NoResponse ResponseKind = iota
	// AutoAck: an automated receipt acknowledgement.
	AutoAck
	// ProvidedContacts: the registrar supplied the owners' contacts
	// (Brazil, Lebanon, Liberia).
	ProvidedContacts
	// Redirected: the registrar forwarded the report to the responsible
	// authority (13 countries).
	Redirected
	// WhoisPointer: the registrar pointed back at public whois data
	// (Japan, Norway).
	WhoisPointer
	// Negative: "We are not interested".
	Negative
)

var responseNames = map[ResponseKind]string{
	NoResponse:       "no response",
	AutoAck:          "automated acknowledgement",
	ProvidedContacts: "provided contacts",
	Redirected:       "redirected to authority",
	WhoisPointer:     "pointed to whois",
	Negative:         "negative",
}

// String names the response kind.
func (k ResponseKind) String() string { return responseNames[k] }

// Supportive reports whether the reaction helps remediation.
func (k ResponseKind) Supportive() bool {
	return k == ProvidedContacts || k == Redirected || k == WhoisPointer
}

// Report is one country's vulnerability disclosure.
type Report struct {
	Country string
	// InvalidHTTPS lists hosts serving broken certificates.
	InvalidHTTPS []string
	// FailedUpgrades lists hosts serving content on both schemes without
	// enforcing https.
	FailedUpgrades []string
	// DeadLinked lists unreachable hosts still linked from live pages.
	DeadLinked []string
}

// BuildReports assembles per-country reports from an indexed scan; country
// attribution comes from the set. deadLinked lists known dead-but-linked
// hostnames per country.
func BuildReports(set *resultset.Set, deadLinked map[string][]string) []Report {
	byCC := map[string]*Report{}
	get := func(cc string) *Report {
		rep, ok := byCC[cc]
		if !ok {
			rep = &Report{Country: cc}
			byCC[cc] = rep
		}
		return rep
	}
	for _, h := range set.InvalidHosts() {
		if cc := set.CountryOf(h); cc != "" {
			get(cc).InvalidHTTPS = append(get(cc).InvalidHTTPS, h)
		}
	}
	for _, i := range set.FailedUpgrades() {
		h := set.At(i).Hostname
		if cc := set.CountryOf(h); cc != "" {
			get(cc).FailedUpgrades = append(get(cc).FailedUpgrades, h)
		}
	}
	for cc, hosts := range deadLinked {
		if len(hosts) > 0 {
			get(cc).DeadLinked = append(get(cc).DeadLinked, hosts...)
		}
	}
	out := make([]Report, 0, len(byCC))
	for _, rep := range byCC {
		sort.Strings(rep.InvalidHTTPS)
		sort.Strings(rep.FailedUpgrades)
		sort.Strings(rep.DeadLinked)
		out = append(out, *rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// Delivery is the outcome of emailing one registrar.
type Delivery struct {
	// Delivered marks successful delivery (possibly after the retry to
	// the administrative contact).
	Delivered bool
	// Response is the registrar's reaction.
	Response ResponseKind
}

// CampaignResult aggregates the disclosure campaign.
type CampaignResult struct {
	// Reports are the disclosures built, one per country with findings.
	Reports []Report
	// SkippedAllValid lists countries skipped because every detected host
	// already had https (9 in the paper).
	SkippedAllValid []string
	// SkippedTerritories lists dependent territories excluded from the
	// campaign (the white bands of Figure 13).
	SkippedTerritories []string
	// Deliveries maps country to delivery outcome.
	Deliveries map[string]Delivery
	// EmailsSent, Delivered, Bounced, RetriedOK, AutoAcks, Supportive and
	// Negative summarize the §7.2 accounting.
	EmailsSent int
	Delivered  int
	Bounced    int
	RetriedOK  int
	AutoAcks   int
	Supportive int
	Negative   int
}

// ResponseRate is the share of delivered reports with a proactive reply
// (paper: ~22%).
func (c *CampaignResult) ResponseRate() float64 {
	if c.Delivered == 0 {
		return 0
	}
	replied := 0
	for _, d := range c.Deliveries {
		if d.Delivered && d.Response != NoResponse && d.Response != AutoAck {
			replied++
		}
	}
	return float64(replied) / float64(c.Delivered)
}

// Campaign runs the disclosure: one email per sovereign country with
// findings. Response behaviour follows Figure 13's population-rank pattern:
// the most populous countries are the least communicative, the medium and
// small ones respond far more.
func Campaign(reports []Report, r *rand.Rand) *CampaignResult {
	res := &CampaignResult{Deliveries: map[string]Delivery{}}
	for _, t := range geo.Territories() {
		res.SkippedTerritories = append(res.SkippedTerritories, t.Code)
	}
	for _, rep := range reports {
		c, ok := geo.ByCode(rep.Country)
		if !ok || c.Territory {
			continue
		}
		if len(rep.InvalidHTTPS) == 0 {
			// Nothing broken to disclose: the paper skipped the nine
			// countries with https on every detected hostname.
			res.SkippedAllValid = append(res.SkippedAllValid, rep.Country)
			continue
		}
		res.Reports = append(res.Reports, rep)
		res.EmailsSent++
		var d Delivery

		// ~4% of first sends bounce; retries to the admin contact succeed
		// about half the time (§7.2: 7 bounced, 3 recovered).
		if r.Float64() < 0.04 {
			res.Bounced++
			if r.Float64() < 0.45 {
				d.Delivered = true
				res.RetriedOK++
			}
		} else {
			d.Delivered = true
		}
		if d.Delivered {
			res.Delivered++
			d.Response = respond(c, r)
			switch {
			case d.Response == AutoAck:
				res.AutoAcks++
			case d.Response.Supportive():
				res.Supportive++
			case d.Response == Negative:
				res.Negative++
			}
		}
		res.Deliveries[rep.Country] = d
	}
	sort.Strings(res.SkippedAllValid)
	sort.Strings(res.SkippedTerritories)
	return res
}

// respond models Figure 13: response probability by population rank band.
func respond(c geo.Country, r *rand.Rand) ResponseKind {
	rank, _ := geo.PopulationRank(c.Code)
	var pReply float64
	switch {
	case rank <= 50:
		pReply = 0.08 // the most populous registrars rarely reply
	case rank <= 100:
		pReply = 0.38 // the dense green band of Figure 13
	case rank <= 200:
		pReply = 0.18
	default:
		pReply = 0.36 // small countries respond well
	}
	if r.Float64() >= pReply {
		if r.Float64() < 0.035 {
			return AutoAck
		}
		return NoResponse
	}
	switch x := r.Float64(); {
	case x < 0.08:
		return ProvidedContacts
	case x < 0.42:
		return Redirected
	case x < 0.50:
		return WhoisPointer
	case x < 0.53:
		return Negative
	default:
		return Redirected
	}
}

// Effectiveness summarizes the follow-up scan (§7.2.2).
type Effectiveness struct {
	// PreviouslyInvalid is the re-scanned population.
	PreviouslyInvalid int
	// Fixed now serve valid https.
	Fixed int
	// Unreachable disappeared entirely.
	Unreachable int
	// StillInvalid continue serving broken certificates.
	StillInvalid int
}

// ImprovementOptimistic counts removals as fixes (paper: 18.7%).
func (e Effectiveness) ImprovementOptimistic() float64 {
	if e.PreviouslyInvalid == 0 {
		return 0
	}
	return float64(e.Fixed+e.Unreachable) / float64(e.PreviouslyInvalid)
}

// ImprovementConservative counts only certificate fixes (paper: 8.3%).
func (e Effectiveness) ImprovementConservative() float64 {
	if e.PreviouslyInvalid == 0 {
		return 0
	}
	return float64(e.Fixed) / float64(e.PreviouslyInvalid)
}

// MeasureEffectiveness compares the follow-up scan of the previously
// invalid hosts with their earlier state. Both sets must cover the same
// host list in the same order.
func MeasureEffectiveness(before, after *resultset.Set) (Effectiveness, error) {
	if before.Len() != after.Len() {
		return Effectiveness{}, fmt.Errorf("notify: scan lengths differ: %d vs %d", before.Len(), after.Len())
	}
	var e Effectiveness
	for i := 0; i < before.Len(); i++ {
		if !before.At(i).Category().IsInvalidHTTPS() {
			continue
		}
		e.PreviouslyInvalid++
		switch {
		case !after.At(i).Available:
			e.Unreachable++
		case after.At(i).ValidHTTPS():
			e.Fixed++
		default:
			e.StillInvalid++
		}
	}
	return e, nil
}
