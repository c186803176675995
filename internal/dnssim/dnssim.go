// Package dnssim is the study's DNS layer: A records resolving hostnames to
// simulated IPs, CAA records restricting certificate issuance (§5.3.4), and
// the resolution failures (NXDOMAIN) that make a hostname "unavailable" in
// the scan.
package dnssim

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
)

// Resolution errors.
var (
	// ErrNXDomain means the hostname does not resolve.
	ErrNXDomain = errors.New("dnssim: NXDOMAIN")
	// ErrServFail models a broken authoritative server.
	ErrServFail = errors.New("dnssim: SERVFAIL")
)

// CAARecord is a DNS Certification Authority Authorization record
// (RFC 6844): it names a CA allowed to issue for the domain.
type CAARecord struct {
	// Tag is "issue" or "issuewild".
	Tag string
	// Value is the authorized CA domain, e.g. "letsencrypt.org".
	Value string
}

// Valid reports whether the record is well-formed.
func (r CAARecord) Valid() bool {
	return (r.Tag == "issue" || r.Tag == "issuewild") && r.Value != ""
}

// record is stored by value in the zone map: one fewer heap object per
// hostname, which matters when whole-world builds register every host.
// The first A record lives inline for the same reason — almost every
// hostname has exactly one address, so the slice stays nil.
type record struct {
	addr0    netip.Addr
	addrs    []netip.Addr // second and later A records, rarely populated
	caa      []CAARecord
	servfail bool
}

// Zone is the authoritative database for the simulated Internet.
type Zone struct {
	mu      sync.RWMutex
	records map[string]record
}

// NewZone creates an empty zone.
func NewZone() *Zone {
	return NewZoneSized(0)
}

// NewZoneSized is NewZone with a capacity hint for the record table, for
// callers that register whole host populations at once.
func NewZoneSized(hint int) *Zone {
	return &Zone{records: make(map[string]record, hint)}
}

// AddA installs an A record for the hostname.
func (z *Zone) AddA(hostname string, addr netip.Addr) {
	z.mu.Lock()
	defer z.mu.Unlock()
	key := strings.ToLower(hostname)
	rec := z.records[key]
	if !rec.addr0.IsValid() {
		rec.addr0 = addr
	} else {
		rec.addrs = append(rec.addrs, addr)
	}
	z.records[key] = rec
}

// AddCAA installs a CAA record on the domain.
func (z *Zone) AddCAA(domain string, r CAARecord) {
	z.mu.Lock()
	defer z.mu.Unlock()
	key := strings.ToLower(domain)
	rec := z.records[key]
	rec.caa = append(rec.caa, r)
	z.records[key] = rec
}

// SetServFail makes lookups for the hostname fail with ErrServFail.
func (z *Zone) SetServFail(hostname string, broken bool) {
	z.mu.Lock()
	defer z.mu.Unlock()
	key := strings.ToLower(hostname)
	rec := z.records[key]
	rec.servfail = broken
	z.records[key] = rec
}

// Remove deletes a hostname entirely (it becomes NXDOMAIN). Used by the
// follow-up scan where 1,572 previously invalid sites disappeared (§7.2.2).
func (z *Zone) Remove(hostname string) {
	z.mu.Lock()
	defer z.mu.Unlock()
	delete(z.records, strings.ToLower(hostname))
}

// LookupA resolves the hostname to its A records. The paper's pipeline uses
// the first returned address (§5.4); records are returned in insertion
// order.
func (z *Zone) LookupA(hostname string) ([]netip.Addr, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	rec, ok := z.records[strings.ToLower(hostname)]
	if !ok {
		return nil, fmt.Errorf("lookup %s: %w", hostname, ErrNXDomain)
	}
	if rec.servfail {
		return nil, fmt.Errorf("lookup %s: %w", hostname, ErrServFail)
	}
	if !rec.addr0.IsValid() {
		return nil, fmt.Errorf("lookup %s: %w", hostname, ErrNXDomain)
	}
	out := make([]netip.Addr, 0, 1+len(rec.addrs))
	out = append(out, rec.addr0)
	out = append(out, rec.addrs...)
	return out, nil
}

// LookupFirstA resolves the hostname to its first A record — the address
// the pipeline dials (§5.4) — without allocating the full record set.
func (z *Zone) LookupFirstA(hostname string) (netip.Addr, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	rec, ok := z.records[strings.ToLower(hostname)]
	if !ok {
		return netip.Addr{}, fmt.Errorf("lookup %s: %w", hostname, ErrNXDomain)
	}
	if rec.servfail {
		return netip.Addr{}, fmt.Errorf("lookup %s: %w", hostname, ErrServFail)
	}
	if !rec.addr0.IsValid() {
		return netip.Addr{}, fmt.Errorf("lookup %s: %w", hostname, ErrNXDomain)
	}
	return rec.addr0, nil
}

// LookupCAA walks up the DNS tree from hostname (RFC 6844 §4) and returns
// the CAA record set of the closest ancestor that has one.
func (z *Zone) LookupCAA(hostname string) []CAARecord {
	z.mu.RLock()
	defer z.mu.RUnlock()
	labels := strings.Split(strings.ToLower(hostname), ".")
	for i := 0; i < len(labels)-1; i++ {
		domain := strings.Join(labels[i:], ".")
		if rec, ok := z.records[domain]; ok && len(rec.caa) > 0 {
			out := make([]CAARecord, len(rec.caa))
			copy(out, rec.caa)
			return out
		}
	}
	return nil
}

// AllowsIssuance reports whether the CAA policy for hostname permits the
// given CA domain to issue. Absent CAA records permit every CA.
func (z *Zone) AllowsIssuance(hostname, caDomain string) bool {
	records := z.LookupCAA(hostname)
	if len(records) == 0 {
		return true
	}
	for _, r := range records {
		if r.Tag == "issue" && strings.EqualFold(r.Value, caDomain) {
			return true
		}
	}
	return false
}

// CAACount returns how many domains carry at least one CAA record and how
// many of those record sets are entirely well-formed — the §5.3.4
// measurement (1,851 domains, 100% valid).
func (z *Zone) CAACount() (withCAA, allValid int) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, rec := range z.records {
		if len(rec.caa) == 0 {
			continue
		}
		withCAA++
		valid := true
		for _, r := range rec.caa {
			if !r.Valid() {
				valid = false
				break
			}
		}
		if valid {
			allValid++
		}
	}
	return withCAA, allValid
}
