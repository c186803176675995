package world

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/httpsim"
	"repro/internal/simnet"
	"repro/internal/tlssim"
)

// challengeState holds the http-01 tokens the renewal fleet has published
// on sites' web servers. It lives beside the Sites index rather than on
// Site so the hot request path (httpHandler) can skip it with one atomic
// load when no ACME campaign is running.
type challengeState struct {
	active atomic.Int64
	mu     sync.RWMutex
	// byHost maps hostname -> token set. The challenge body is the token
	// itself, matching acme.Server's http-01 validation.
	byHost map[string]map[string]bool
}

// SetChallenge publishes an http-01 token for the hostname, as a webmaster
// (or certbot) would install a challenge file. Sites that serve no plain
// http — https-only or unavailable — get a temporary standalone responder
// bound to port 80 for the duration, like certbot's standalone
// authenticator. Returns false for hostnames the world does not know.
func (w *World) SetChallenge(hostname, token string) bool {
	s, ok := w.Sites[hostname]
	if !ok || !s.IP.IsValid() {
		return false
	}
	w.challenges.mu.Lock()
	if w.challenges.byHost == nil {
		w.challenges.byHost = make(map[string]map[string]bool)
	}
	tokens := w.challenges.byHost[hostname]
	if tokens == nil {
		tokens = make(map[string]bool)
		w.challenges.byHost[hostname] = tokens
	}
	if !tokens[token] {
		tokens[token] = true
		w.challenges.active.Add(1)
	}
	w.challenges.mu.Unlock()
	if !s.Serving.HasHTTP() && s.Serving != Unavailable {
		// No handler owns port 80: bind the standalone responder. The
		// Unavailable handler already consults the challenge table.
		w.Net.Handle(netip.AddrPortFrom(s.IP, 80), w.challengeOnlyHandler(s))
	}
	return true
}

// ClearChallenge withdraws every token published for the hostname and,
// when a standalone responder was bound, releases port 80 again.
func (w *World) ClearChallenge(hostname string) {
	s, ok := w.Sites[hostname]
	if !ok {
		return
	}
	w.challenges.mu.Lock()
	if tokens := w.challenges.byHost[hostname]; len(tokens) > 0 {
		w.challenges.active.Add(int64(-len(tokens)))
		delete(w.challenges.byHost, hostname)
	}
	w.challenges.mu.Unlock()
	if s.IP.IsValid() && !s.Serving.HasHTTP() && s.Serving != Unavailable {
		w.Net.Handle(netip.AddrPortFrom(s.IP, 80), nil)
	}
}

// challengeAnswer reports whether path is an active http-01 challenge for
// the hostname and returns the response body. The no-campaign fast path
// is one atomic load.
func (w *World) challengeAnswer(hostname, path string) (string, bool) {
	if w.challenges.active.Load() == 0 {
		return "", false
	}
	const prefix = "/.well-known/acme-challenge/"
	if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return "", false
	}
	token := path[len(prefix):]
	w.challenges.mu.RLock()
	ok := w.challenges.byHost[hostname][token]
	w.challenges.mu.RUnlock()
	return token, ok
}

// challengeOnlyHandler answers http-01 probes and nothing else — the
// standalone responder for sites with no plain-http service.
func (w *World) challengeOnlyHandler(s *Site) simnet.Handler {
	site := s
	return func(conn net.Conn) {
		defer conn.Close()
		req, err := httpsim.ReadRequestConn(conn)
		if err != nil {
			return
		}
		if body, ok := w.challengeAnswer(site.Hostname, req.Path); ok {
			httpsim.WriteResponse(conn, 200, httpsim.Header{Close: true}, []byte(body))
			return
		}
		httpsim.WriteResponse(conn, 404, httpsim.Header{Close: true}, nil)
	}
}

// RotateCert swaps the site's certificate chain for a freshly issued one
// and re-registers its endpoints — the fleet's zero-downtime deploy.
// Handler registration is an atomic swap in the network's endpoint table:
// established connections finish against the old closure, new dials get
// the new chain, and no dial ever observes a torn-down port. Rotation
// also clears the operational debris a competent redeploy fixes: network
// faults on 443, TLS quirks, and ancient protocol ceilings. Returns false
// for unknown hostnames or empty chains.
func (w *World) RotateCert(hostname string, chain []*cert.Certificate) bool {
	s, ok := w.Sites[hostname]
	if !ok || !s.IP.IsValid() || len(chain) == 0 {
		return false
	}
	leaf := chain[0]
	s.Chain = chain
	if leaf.SelfSigned() {
		s.Issuer = ""
	} else {
		s.Issuer = leaf.Issuer.CommonName
	}
	// Fresh CA issuance reaches the transparency log, the same way
	// buildCT submits chains: self-signed and unknown-issuer chains
	// never log. The CT timestamp convention matches buildCT's.
	if w.CT != nil && !leaf.SelfSigned() {
		if _, known := w.CAs.Lookup(leaf.Issuer.CommonName); known {
			for _, c := range chain {
				c.Freeze()
			}
			w.CT.Append(leaf, leaf.NotBefore.Add(time.Minute))
		}
	}
	w.recordChange(leaf.NotBefore, hostname, CertRotated)
	// Clear declared and injected faults on 443 (SetFaultSpec with the
	// zero spec also removes transient flaky specs that were installed
	// without marking s.Fault).
	w.Net.SetFaultSpec(netip.AddrPortFrom(s.IP, 443), simnet.FaultSpec{})
	s.Fault = simnet.FaultNone
	s.Quirk = tlssim.QuirkNone
	s.TLSMin, s.TLSMax = tlssim.TLS1_0, tlssim.TLS1_2
	if !s.Serving.HasHTTPS() {
		// An http-only host adopting https via ACME starts redirecting.
		s.Serving = BothRedirect
	}
	w.serveSite(s)
	return true
}
