package world

import (
	"context"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/httpsim"
	"repro/internal/simnet"
	"repro/internal/tlssim"
	"repro/internal/verify"
)

// acmeHookWorld builds a private small world: these tests mutate serving
// state and must not touch the shared testWorld.
func acmeHookWorld(t *testing.T) *World {
	t.Helper()
	return MustBuild(Config{Seed: 7, Scale: 0.005})
}

func findSite(w *World, pred func(*Site) bool) *Site {
	for _, h := range w.GovHosts {
		if s := w.Sites[h]; pred(s) {
			return s
		}
	}
	return nil
}

func TestChallengeServing(t *testing.T) {
	w := acmeHookWorld(t)
	s := findSite(w, func(s *Site) bool { return s.Serving == BothRedirect })
	if s == nil {
		t.Fatal("no BothRedirect site")
	}
	ctx := context.Background()
	get := func(path string) *httpsim.Response {
		conn, err := w.Net.Dial(ctx, netip.AddrPortFrom(s.IP, 80))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		resp, err := httpsim.Get(conn, s.Hostname, path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		return resp
	}

	const token = "tok-000001-0-deadbeef"
	path := "/.well-known/acme-challenge/" + token
	if resp := get(path); resp.StatusCode == 200 {
		t.Fatal("challenge served before SetChallenge")
	}
	if !w.SetChallenge(s.Hostname, token) {
		t.Fatal("SetChallenge refused a known host")
	}
	if resp := get(path); resp.StatusCode != 200 || string(resp.Body) != token {
		t.Fatalf("challenge = %d %q, want 200 %q", resp.StatusCode, resp.Body, token)
	}
	// The site's normal behaviour is unaffected mid-campaign.
	if resp := get("/"); !resp.IsRedirect() {
		t.Errorf("/ = %d, want redirect during challenge", resp.StatusCode)
	}
	w.ClearChallenge(s.Hostname)
	if resp := get(path); resp.StatusCode == 200 {
		t.Fatal("challenge still served after ClearChallenge")
	}
	if w.SetChallenge("no-such-host.invalid", token) {
		t.Error("SetChallenge accepted an unknown host")
	}
}

// TestChallengeStandaloneResponder covers https-only sites: no handler
// owns port 80, so a campaign binds a temporary responder and releases it.
func TestChallengeStandaloneResponder(t *testing.T) {
	w := acmeHookWorld(t)
	s := findSite(w, func(s *Site) bool {
		return s.Serving == HTTPSOnly && s.Fault == simnet.FaultNone
	})
	if s == nil {
		t.Skip("no https-only site at this scale")
	}
	ctx := context.Background()
	ep := netip.AddrPortFrom(s.IP, 80)
	if _, err := w.Net.Dial(ctx, ep); err == nil {
		t.Fatal("https-only site answered port 80 before campaign")
	}
	const token = "tok-standalone"
	w.SetChallenge(s.Hostname, token)
	conn, err := w.Net.Dial(ctx, ep)
	if err != nil {
		t.Fatalf("standalone responder not bound: %v", err)
	}
	resp, err := httpsim.Get(conn, s.Hostname, "/.well-known/acme-challenge/"+token)
	conn.Close()
	if err != nil || resp.StatusCode != 200 || string(resp.Body) != token {
		t.Fatalf("standalone challenge = %v %v", resp, err)
	}
	w.ClearChallenge(s.Hostname)
	if _, err := w.Net.Dial(ctx, ep); err == nil {
		t.Fatal("standalone responder still bound after ClearChallenge")
	}
}

func TestRotateCert(t *testing.T) {
	w := acmeHookWorld(t)
	s := findSite(w, func(s *Site) bool {
		return s.Serving.HasHTTPS() && s.Injected != ClassValid && s.Fault == simnet.FaultNone
	})
	if s == nil {
		t.Fatal("no broken https site")
	}
	authority := w.CAs.MustLookup("Let's Encrypt Authority X3")
	key := cert.NewKey(rand.New(rand.NewSource(99)), cert.KeyRSA, 2048)
	chain := authority.Issue(ca.Request{
		Hostnames: []string{s.Hostname},
		Key:       key,
		NotBefore: w.ScanTime,
	})
	if !w.RotateCert(s.Hostname, chain) {
		t.Fatal("RotateCert refused a known host")
	}

	raw, err := w.Net.Dial(context.Background(), netip.AddrPortFrom(s.IP, 443))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	tc, err := tlssim.ClientHandshake(raw, tlssim.DefaultClientConfig(s.Hostname))
	if err != nil {
		t.Fatalf("handshake after rotation: %v", err)
	}
	v := &verify.Verifier{Store: w.Stores["apple"], Now: w.ScanTime.AddDate(0, 1, 0)}
	if res := v.Verify(tc.ConnectionState().Chain, s.Hostname); !res.Valid() {
		t.Fatalf("rotated chain invalid: %v", res.Code)
	}
	if s.Issuer != chain[0].Issuer.CommonName {
		t.Errorf("Issuer = %q, want %q", s.Issuer, chain[0].Issuer.CommonName)
	}
	if w.RotateCert(s.Hostname, nil) {
		t.Error("RotateCert accepted an empty chain")
	}
	if w.RotateCert("no-such-host.invalid", chain) {
		t.Error("RotateCert accepted an unknown host")
	}
}

// TestRotateCertUpgradesHTTPOnly: an http-only host adopting https via the
// fleet starts serving and redirecting.
func TestRotateCertUpgradesHTTPOnly(t *testing.T) {
	w := acmeHookWorld(t)
	s := findSite(w, func(s *Site) bool { return s.Serving == HTTPOnly })
	if s == nil {
		t.Fatal("no http-only site")
	}
	authority := w.CAs.MustLookup("Let's Encrypt Authority X3")
	key := cert.NewKey(rand.New(rand.NewSource(100)), cert.KeyRSA, 2048)
	chain := authority.Issue(ca.Request{
		Hostnames: []string{s.Hostname},
		Key:       key,
		NotBefore: w.ScanTime,
	})
	if !w.RotateCert(s.Hostname, chain) {
		t.Fatal("RotateCert refused")
	}
	if s.Serving != BothRedirect {
		t.Fatalf("Serving = %v, want BothRedirect", s.Serving)
	}
	conn, err := w.Net.Dial(context.Background(), netip.AddrPortFrom(s.IP, 443))
	if err != nil {
		t.Fatalf("443 after upgrade: %v", err)
	}
	conn.Close()
}
