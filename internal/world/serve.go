package world

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"net/netip"
	"time"

	"repro/internal/httpsim"
	"repro/internal/simnet"
	"repro/internal/tlssim"
)

// serveAll registers every site's endpoints on the simulated network.
// Handlers are registered lazily (no goroutine per site), so a full-scale
// world of hundreds of thousands of endpoints stays cheap.
func (w *World) serveAll() {
	//lint:allow maprange Network.Handle is a keyed map insert per endpoint and no RNG is drawn here, so registration order cannot leak into scan results
	for _, s := range w.Sites {
		w.serveSite(s)
	}
}

func (w *World) serveSite(s *Site) {
	if !s.IP.IsValid() {
		return
	}
	ep80 := netip.AddrPortFrom(s.IP, 80)
	ep443 := netip.AddrPortFrom(s.IP, 443)

	switch s.Serving {
	case Unavailable:
		// Resolves, answers http, but never with a 200 — except for an
		// active ACME challenge, which the renewal fleet may publish even
		// on a host whose main service is down.
		site := s
		w.Net.Handle(ep80, func(conn net.Conn) {
			defer conn.Close()
			req, err := httpsim.ReadRequestConn(conn)
			if err != nil {
				return
			}
			if body, ok := w.challengeAnswer(site.Hostname, req.Path); ok {
				httpsim.WriteResponse(conn, 200, httpsim.Header{Close: true}, []byte(body))
				return
			}
			conn.Write(resp503)
		})
		return
	case HTTPOnly:
		w.Net.Handle(ep80, w.httpHandler(s, false))
	case HTTPSOnly:
		w.serveTLS(s, ep443)
	case BothRedirect:
		w.Net.Handle(ep80, w.httpHandler(s, true))
		w.serveTLS(s, ep443)
	case BothNoRedirect:
		w.Net.Handle(ep80, w.httpHandler(s, false))
		w.serveTLS(s, ep443)
	}
}

// serveTLS wires the https endpoint, installing network faults where the
// site's class calls for them.
func (w *World) serveTLS(s *Site, ep netip.AddrPort) {
	if s.Fault != simnet.FaultNone {
		// The endpoint must exist for the fault to be meaningful.
		w.Net.Handle(ep, func(conn net.Conn) { conn.Close() })
		w.Net.SetFault(ep, s.Fault)
		return
	}
	// No eager Freeze here: the Certificate message is encoded once per
	// site (certMsgOnce), and the scanner fingerprints the parsed copy it
	// receives, never these objects. buildCT freezes the chains it logs.
	cfg := &tlssim.ServerConfig{
		Chain:      s.Chain,
		MinVersion: s.TLSMin,
		MaxVersion: s.TLSMax,
		Quirk:      s.Quirk,
	}
	site := s
	w.Net.Handle(ep, func(conn net.Conn) {
		defer conn.Close()
		tc, err := tlssim.ServerHandshake(conn, cfg)
		if err != nil {
			return
		}
		w.answer(tc, site, false)
	})
}

// httpHandler serves the plain-http side. Active http-01 challenges
// answer before the redirect: Let's Encrypt validates over port 80, so a
// redirecting site must still serve its challenge files directly.
func (w *World) httpHandler(s *Site, redirect bool) simnet.Handler {
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
		if redirect {
			site.render()
			conn.Write(site.respRedirect)
			return
		}
		w.writePage(conn, site, false)
	}
}

// answer handles one request arriving over an established TLS connection.
func (w *World) answer(conn net.Conn, s *Site, _ bool) {
	if _, err := httpsim.ReadRequestConn(conn); err != nil {
		return
	}
	w.writePage(conn, s, true)
}

func (w *World) writePage(conn net.Conn, s *Site, https bool) {
	s.render()
	if https {
		conn.Write(s.respHTTPS)
	} else {
		conn.Write(s.respHTTP)
	}
}

// render serializes the site's responses once, on first request — after the
// link graph is final — so every later request is a single buffer write.
// Safe under concurrent scanners via renderOnce.
func (s *Site) render() {
	s.renderOnce.Do(func() {
		links := make([]string, 0, len(s.Links))
		for _, l := range s.Links {
			links = append(links, "http://"+l+"/")
		}
		title := fmt.Sprintf("Official website — %s", s.Hostname)
		body := httpsim.RenderPage(title, links)

		var b bytes.Buffer
		b.Grow(len(body) + 256)
		hdr := httpsim.Header{ContentType: "text/html", Close: true}
		httpsim.WriteResponse(&b, 200, hdr, body)
		s.respHTTP = append([]byte(nil), b.Bytes()...)

		hdr.HSTS = s.HSTS
		b.Reset()
		httpsim.WriteResponse(&b, 200, hdr, body)
		s.respHTTPS = append([]byte(nil), b.Bytes()...)

		b.Reset()
		httpsim.WriteResponse(&b, 301, httpsim.Header{
			Location: "https://" + s.Hostname + "/",
			Close:    true,
		}, nil)
		s.respRedirect = append([]byte(nil), b.Bytes()...)
	})
}

// resp503 is the canned unavailable-site answer.
var resp503 = func() []byte {
	var b bytes.Buffer
	httpsim.WriteResponse(&b, 503, httpsim.Header{Close: true}, []byte("service unavailable"))
	return b.Bytes()
}()

// injectTransientFaults makes Cfg.Flakiness of the reachable https estate
// flaky: the 443 endpoint fails its first one or two dials (connection
// reset) before serving normally, and some of those hosts also answer
// slowly (injected dial latency on the shared virtual clock). Selection is
// a per-hostname hash of the seed — not a sequential RNG — so the
// injection is identical regardless of map iteration order, and every
// faulted site recovers within the paper's 3-retry budget, leaving the
// Table 2 calibration untouched.
func (w *World) injectTransientFaults() {
	if w.Cfg.Flakiness <= 0 {
		return
	}
	//lint:allow maprange selection hashes each hostname against the seed, so the injected fault set is identical under any iteration order
	for _, s := range w.Sites {
		if !s.IP.IsValid() || !s.Serving.HasHTTPS() || s.Fault != simnet.FaultNone {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(s.Hostname))
		var seedBuf [8]byte
		for i := 0; i < 8; i++ {
			seedBuf[i] = byte(w.Cfg.Seed >> (8 * i))
		}
		h.Write(seedBuf[:])
		v := h.Sum64()
		if float64(v>>11)/float64(1<<53) >= w.Cfg.Flakiness {
			continue
		}
		spec := simnet.FaultSpec{
			Mode:      simnet.FaultFlaky,
			FailCount: 1 + int(v%2),
		}
		if v%3 == 0 {
			spec.DialLatency = time.Duration(50+v%450) * time.Millisecond
		}
		w.Net.SetFaultSpec(netip.AddrPortFrom(s.IP, 443), spec)
	}
}

// buildFirewall installs the national-firewall model (§7.1.2): dials from
// the default external vantage to blocked Chinese endpoints time out. The
// blocked set is the unreachable-but-resolving Chinese population, so the
// worldwide calibration of reachable sites is untouched.
func (w *World) buildFirewall() {
	blocked := make(map[netip.Addr]bool)
	for _, host := range w.UnreachableHosts {
		if w.CountryOf(host) != "" {
			continue // reachable sites are never firewalled
		}
		addrs, err := w.DNS.LookupA(host)
		if err != nil || len(addrs) == 0 {
			continue
		}
		// Only .cn hostnames participate in the firewall model.
		if len(host) > 3 && host[len(host)-3:] == ".cn" {
			blocked[addrs[0]] = true
		}
	}
	if len(blocked) == 0 {
		return
	}
	w.Net.SetFirewall(func(fromVantage string, to netip.AddrPort) error {
		if fromVantage == "cn-domestic" {
			return nil // §7.1.2: VPN vantages closer to China did not help us either
		}
		if blocked[to.Addr()] {
			return simnet.ErrFirewallTimeout
		}
		return nil
	})
}
