package acmefleet

import (
	"hash/fnv"
	"net/netip"

	"repro/internal/dnssim"
	"repro/internal/simnet"
	"repro/internal/world"
)

func simnetFlaky(failCount int) simnet.FaultSpec {
	return simnet.FaultSpec{Mode: simnet.FaultFlaky, FailCount: failCount}
}

func simnetTruncate(bytes int) simnet.FaultSpec {
	return simnet.FaultSpec{Mode: simnet.FaultTruncate, TruncateBytes: bytes}
}

// The chaos profile: the operational reality the long tail renews under,
// matching the error mix the Let's Encrypt adoption study motivates —
// mostly transient network trouble, a persistent rump, a thin band of
// policy denials. Fractions are of the enrolled population.
const (
	// flakyFrac of hosts reset their first 1–3 challenge dials before
	// recovering — the transient class the backoff schedule absorbs.
	flakyFrac = 0.10
	// truncateFrac of hosts permanently truncate port-80 responses — the
	// persistent class the failure budget parks.
	truncateFrac = 0.02
	// caaDenyFrac of CAA-less hosts publish a CAA record authorizing a
	// different CA — the terminal policy-denial class.
	caaDenyFrac = 0.03
)

// Outcome lists which hosts each fault class landed on.
type ChaosOutcome struct {
	Flaky     []string
	Truncated []string
	CAADenied []string
}

// ApplyChaos injects the chaos profile's faults over the host list.
// Selection hashes each hostname against the seed — per-host, order-free,
// identical under any iteration of the caller — and bands the unit
// interval as [0, deny) [deny, deny+flaky) [deny+flaky, deny+flaky+truncate).
// CAA denial skips hosts that already publish CAA records (AddCAA
// appends, and any matching record would keep issuance allowed).
func ApplyChaos(w *world.World, hosts []string, seed int64) ChaosOutcome {
	var out ChaosOutcome
	for _, hostname := range hosts {
		s, ok := w.Sites[hostname]
		if !ok || !s.IP.IsValid() {
			continue
		}
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(seed >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(hostname))
		h.Write([]byte("fleet-chaos"))
		v := h.Sum64()
		u := float64(v>>11) / float64(1<<53)
		ep80 := netip.AddrPortFrom(s.IP, 80)
		switch {
		case u < caaDenyFrac:
			if len(w.DNS.LookupCAA(hostname)) > 0 {
				continue
			}
			w.DNS.AddCAA(hostname, dnssim.CAARecord{Tag: "issue", Value: "digicert.com"})
			out.CAADenied = append(out.CAADenied, hostname)
		case u < caaDenyFrac+flakyFrac:
			w.Net.SetFaultSpec(ep80, simnetFlaky(1+int(v%3)))
			out.Flaky = append(out.Flaky, hostname)
		case u < caaDenyFrac+flakyFrac+truncateFrac:
			w.Net.SetFaultSpec(ep80, simnetTruncate(int(v%30)))
			out.Truncated = append(out.Truncated, hostname)
		}
	}
	return out
}
