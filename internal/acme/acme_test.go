package acme_test

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/acme"
	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/dnssim"
	"repro/internal/httpsim"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/truststore"
	"repro/internal/verify"
)

// harness wires an ACME CA, a DNS zone, a web server that can publish
// challenge tokens, and a client — a miniature certbot deployment.
type harness struct {
	net    *simnet.Network
	zone   *dnssim.Zone
	reg    *ca.Registry
	store  *truststore.Store
	server *acme.Server
	client *acme.Client
	rng    *rand.Rand

	mu     sync.Mutex
	tokens map[string]map[string]string // hostname -> token -> content
}

var acmeAPI = netip.MustParseAddrPort("172.30.0.1:80")

func newHarness(t *testing.T) *harness {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	h := &harness{
		net:    simnet.New(),
		zone:   dnssim.NewZone(),
		reg:    ca.NewRegistry(rng),
		rng:    rng,
		tokens: map[string]map[string]string{},
	}
	h.store = h.reg.BuildStore("apple", ca.AppleCounts, rng)
	authority := h.reg.MustLookup("Let's Encrypt Authority X3")
	clk := simclock.NewVirtual(time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC))
	h.server = acme.NewServer(authority, "letsencrypt.org", h.zone, h.net, clk)
	h.net.Handle(acmeAPI, h.server.Handle)
	h.client = &acme.Client{
		Server:     acmeAPI,
		ServerName: "acme-v02.api.letsencrypt.org",
		Net:        h.net,
		Vantage:    "webmaster",
		Provision:  h.provision,
	}
	return h
}

// addSite registers a hostname with a challenge-capable web server.
func (h *harness) addSite(t *testing.T, hostname, ip string) {
	t.Helper()
	addr := netip.MustParseAddr(ip)
	h.zone.AddA(hostname, addr)
	h.net.Handle(netip.AddrPortFrom(addr, 80), func(conn net.Conn) {
		defer conn.Close()
		req, err := httpsim.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		if strings.HasPrefix(req.Path, acme.ChallengePath) {
			token := strings.TrimPrefix(req.Path, acme.ChallengePath)
			h.mu.Lock()
			content, ok := h.tokens[req.Host][token]
			h.mu.Unlock()
			if ok {
				httpsim.WriteResponse(conn, 200, httpsim.Header{Close: true}, []byte(content))
				return
			}
			httpsim.WriteResponse(conn, 404, httpsim.Header{Close: true}, nil)
			return
		}
		httpsim.WriteResponse(conn, 200, httpsim.Header{Close: true}, []byte("hello"))
	})
}

func (h *harness) provision(hostname, token string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens[hostname] == nil {
		h.tokens[hostname] = map[string]string{}
	}
	h.tokens[hostname][token] = token
	return nil
}

func (h *harness) key(bits int) cert.PublicKey {
	return cert.NewKey(h.rng, cert.KeyRSA, bits)
}

func TestObtainEndToEnd(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	chain, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048))
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain = %d certs", len(chain))
	}
	v := &verify.Verifier{Store: h.store, Now: h.server.Clock.Now().AddDate(0, 1, 0)}
	if res := v.Verify(chain, "portal.gov.br"); !res.Valid() {
		t.Fatalf("issued chain invalid: %v (%s)", res.Code, res.Detail)
	}
	if got := chain[0].ValidityDays(); got != 90 {
		t.Errorf("lifetime = %d days, want Let's Encrypt's 90", got)
	}
}

func TestObtainMultiSAN(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "www.agency.gov.br", "190.10.0.2")
	h.addSite(t, "agency.gov.br", "190.10.0.3")
	chain, err := h.client.Obtain(context.Background(),
		[]string{"www.agency.gov.br", "agency.gov.br"}, h.key(2048))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"www.agency.gov.br", "agency.gov.br"} {
		if err := chain[0].VerifyHostname(name); err != nil {
			t.Errorf("issued cert does not cover %s", name)
		}
	}
}

func TestChallengeFailsWithoutProvisioning(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "portal.gov.br", "190.10.0.4")
	// Bypass the client's provisioning by driving the server directly.
	resp, err := h.server.NewOrder(acme.OrderRequest{
		Hostnames: []string{"portal.gov.br"},
		KeyID:     h.key(2048).ID.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.server.Finalize(context.Background(), resp.OrderID)
	if !errors.Is(err, acme.ErrChallenge) {
		t.Fatalf("err = %v, want challenge failure", err)
	}
}

func TestChallengeFailsForUnresolvableHost(t *testing.T) {
	h := newHarness(t)
	_, err := h.client.Obtain(context.Background(), []string{"ghost.gov.br"}, h.key(2048))
	if !errors.Is(err, acme.ErrChallenge) && err == nil {
		t.Fatalf("err = %v", err)
	}
}

func TestCAAEnforced(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "locked.gov.br", "190.10.0.5")
	h.zone.AddCAA("locked.gov.br", dnssim.CAARecord{Tag: "issue", Value: "digicert.com"})
	_, err := h.client.Obtain(context.Background(), []string{"locked.gov.br"}, h.key(2048))
	if err == nil || !strings.Contains(err.Error(), "CAA") {
		t.Fatalf("err = %v, want CAA refusal", err)
	}
	// Authorizing the CA unblocks issuance.
	h.zone.AddCAA("locked.gov.br", dnssim.CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	if _, err := h.client.Obtain(context.Background(), []string{"locked.gov.br"}, h.key(2048)); err != nil {
		t.Fatalf("authorized issuance failed: %v", err)
	}
}

func TestKeyReusePolicy(t *testing.T) {
	// The §8.1 recommendation: a key certified for one government must not
	// be certified for an unrelated hostname.
	h := newHarness(t)
	h.server.EnforceKeyReuse = true
	h.addSite(t, "portal.gov.bd", "190.10.0.6")
	h.addSite(t, "sub.portal.gov.bd", "190.10.0.7")
	h.addSite(t, "unrelated.gov.co", "190.10.0.8")

	key := h.key(2048)
	if _, err := h.client.Obtain(context.Background(), []string{"portal.gov.bd"}, key); err != nil {
		t.Fatalf("first issuance: %v", err)
	}
	// Same key for a subdomain: allowed (§8.1's explicit carve-out).
	if _, err := h.client.Obtain(context.Background(), []string{"sub.portal.gov.bd"}, key); err != nil {
		t.Fatalf("subdomain reissue: %v", err)
	}
	// Same key for an unrelated government: refused.
	_, err := h.client.Obtain(context.Background(), []string{"unrelated.gov.co"}, key)
	if err == nil || !strings.Contains(err.Error(), "already certified") {
		t.Fatalf("err = %v, want key-reuse refusal", err)
	}
	// Without the policy (today's reality), the same request succeeds.
	h.server.EnforceKeyReuse = false
	if _, err := h.client.Obtain(context.Background(), []string{"unrelated.gov.co"}, key); err != nil {
		t.Fatalf("issuance without policy: %v", err)
	}
}

func TestFinalizeUnknownOrder(t *testing.T) {
	h := newHarness(t)
	_, err := h.server.Finalize(context.Background(), "order-999999")
	if !errors.Is(err, acme.ErrUnknownOrder) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadKeyIDRejected(t *testing.T) {
	h := newHarness(t)
	_, err := h.server.NewOrder(acme.OrderRequest{Hostnames: []string{"x.gov.br"}, KeyID: "zz"})
	if err == nil {
		t.Fatal("malformed key id accepted")
	}
}

func TestHTTPAPIRejectsGarbage(t *testing.T) {
	h := newHarness(t)
	conn, err := h.net.Dial(context.Background(), "lab", acmeAPI)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := httpsim.Post(conn, bufio.NewReader(conn), "acme", "/acme/new-order", "application/json", []byte("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}
