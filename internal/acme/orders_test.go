package acme_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/acme"
	"repro/internal/dnssim"
	"repro/internal/simclock"
)

func TestRegisteredDomain(t *testing.T) {
	cases := map[string]string{
		"portal.gov.br":          "portal.gov.br", // gov.br is a public suffix → portal.gov.br is the domain
		"www.portal.gov.br":      "portal.gov.br",
		"deep.www.portal.gov.br": "portal.gov.br",
		"moj.go.kr":              "moj.go.kr",
		"example.com":            "example.com",
		"www.example.com":        "example.com",
		"a.b.example.com":        "example.com",
		"*.portal.gov.uk":        "portal.gov.uk",
		"single":                 "single",
	}
	for in, want := range cases {
		if got := acme.RegisteredDomain(in); got != want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestIssuanceTracksClock proves satellite 1: NotBefore advances with the
// virtual clock instead of a fixed epoch.
func TestIssuanceTracksClock(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	clk := h.server.Clock.(*simclock.Virtual)

	first, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(45 * 24 * time.Hour)
	second, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048))
	if err != nil {
		t.Fatal(err)
	}
	got := second[0].NotBefore.Sub(first[0].NotBefore)
	if got != 45*24*time.Hour {
		t.Fatalf("NotBefore advanced %v, want 45 days", got)
	}
	if first[0].SerialNumber == second[0].SerialNumber {
		t.Fatalf("two issuances at different times share serial %d", first[0].SerialNumber)
	}
}

func TestPerDomainRateLimit(t *testing.T) {
	h := newHarness(t)
	h.server.Limits = acme.RateLimits{PerDomain: 2, PerDomainWindow: 7 * 24 * time.Hour}
	clk := h.server.Clock.(*simclock.Virtual)
	order := func(host string) error {
		_, err := h.server.NewOrder(acme.OrderRequest{
			Hostnames: []string{host}, KeyID: h.key(2048).ID.String(),
		})
		return err
	}

	// Two subdomains of one registered domain fill the window...
	if err := order("www.portal.gov.br"); err != nil {
		t.Fatal(err)
	}
	if err := order("mail.portal.gov.br"); err != nil {
		t.Fatal(err)
	}
	// ...the third is refused with a usable RetryAfter...
	err := order("api.portal.gov.br")
	if !errors.Is(err, acme.ErrRateLimited) {
		t.Fatalf("err = %v, want rate limit", err)
	}
	var rl *acme.RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %T, want *RateLimitError", err)
	}
	if rl.Domain != "portal.gov.br" || rl.Scope != "registered-domain" {
		t.Fatalf("refusal = %+v", rl)
	}
	wantRetry := clk.Now().Add(7 * 24 * time.Hour)
	if !rl.RetryAfter.Equal(wantRetry) {
		t.Fatalf("RetryAfter = %v, want %v", rl.RetryAfter, wantRetry)
	}
	// ...an unrelated domain is unaffected...
	if err := order("other.gov.uk"); err != nil {
		t.Fatal(err)
	}
	// ...and the window slides open again.
	clk.Advance(7*24*time.Hour + time.Second)
	if err := order("api.portal.gov.br"); err != nil {
		t.Fatalf("after window: %v", err)
	}
}

func TestGlobalRateLimit(t *testing.T) {
	h := newHarness(t)
	h.server.Limits = acme.RateLimits{Global: 3, GlobalWindow: time.Hour}
	for i := 0; i < 3; i++ {
		host := fmt.Sprintf("site%d.gov.br", i)
		if _, err := h.server.NewOrder(acme.OrderRequest{
			Hostnames: []string{host}, KeyID: h.key(2048).ID.String(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := h.server.NewOrder(acme.OrderRequest{
		Hostnames: []string{"site3.gov.br"}, KeyID: h.key(2048).ID.String(),
	})
	var rl *acme.RateLimitError
	if !errors.As(err, &rl) || rl.Scope != "new-orders" {
		t.Fatalf("err = %v, want global rate limit", err)
	}
}

// TestRateLimitOverHTTP proves the typed refusal survives the wire: the
// client gets back a *RateLimitError carrying the server's RetryAfter.
func TestRateLimitOverHTTP(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	h.server.Limits = acme.RateLimits{PerDomain: 1, PerDomainWindow: 24 * time.Hour}

	if _, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048)); err != nil {
		t.Fatal(err)
	}
	_, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048))
	if !errors.Is(err, acme.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited through the HTTP API", err)
	}
	var rl *acme.RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %T, want *RateLimitError", err)
	}
	want := h.server.Clock.Now().Add(24 * time.Hour)
	if !rl.RetryAfter.Equal(want) {
		t.Fatalf("RetryAfter = %v, want %v", rl.RetryAfter, want)
	}
}

// TestProblemCodesSurviveHTTP proves errors.Is classification works on the
// client side of the API for non-rate-limit refusals too.
func TestProblemCodesSurviveHTTP(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "locked.gov.br", "190.10.0.5")
	h.zone.AddCAA("locked.gov.br", dnssim.CAARecord{Tag: "issue", Value: "digicert.com"})
	_, err := h.client.Obtain(context.Background(), []string{"locked.gov.br"}, h.key(2048))
	if !errors.Is(err, acme.ErrCAARefused) {
		t.Fatalf("err = %v, want ErrCAARefused through the HTTP API", err)
	}

	h.server.EnforceKeyReuse = true
	h.addSite(t, "a.gov.br", "190.10.0.6")
	h.addSite(t, "b.gov.uk", "190.10.0.7")
	key := h.key(2048)
	if _, err := h.client.Obtain(context.Background(), []string{"a.gov.br"}, key); err != nil {
		t.Fatal(err)
	}
	_, err = h.client.Obtain(context.Background(), []string{"b.gov.uk"}, key)
	if !errors.Is(err, acme.ErrKeyReuse) {
		t.Fatalf("err = %v, want ErrKeyReuse through the HTTP API", err)
	}
}

// TestPendingOrdersCreationOrder proves order IDs follow creation order
// and that a terminal finalize retires exactly its own order: finalizing
// it again finds no order, while its neighbours stay live.
func TestPendingOrdersCreationOrder(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "ok.gov.br", "190.10.0.1")
	var ids []string
	for i := 0; i < 20; i++ {
		host := fmt.Sprintf("host%02d.gov.br", i)
		resp, err := h.server.NewOrder(acme.OrderRequest{
			Hostnames: []string{host}, KeyID: h.key(2048).ID.String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.OrderID)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("order ids not in creation order: %s before %s", ids[i-1], ids[i])
		}
	}
	// Failed finalize (no provisioning) is terminal: the order retires.
	_, err := h.server.Finalize(context.Background(), ids[3])
	if err == nil {
		t.Fatal("finalize without provisioning succeeded")
	}
	if errors.Is(err, acme.ErrUnknownOrder) {
		t.Fatalf("first finalize of a live order: %v", err)
	}
	if _, err := h.server.Finalize(context.Background(), ids[3]); !errors.Is(err, acme.ErrUnknownOrder) {
		t.Fatalf("terminally failed order still live: err = %v, want ErrUnknownOrder", err)
	}
	if _, err := h.server.Finalize(context.Background(), ids[4]); errors.Is(err, acme.ErrUnknownOrder) {
		t.Fatal("retiring one order retired its neighbour")
	}
}

// TestOrderBookkeepingConcurrent hammers order creation and finalization
// from many goroutines; run under -race it proves the bookkeeping is
// synchronized, and afterwards exactly the finalized orders are retired.
func TestOrderBookkeepingConcurrent(t *testing.T) {
	h := newHarness(t)
	h.addSite(t, "renew.gov.br", "190.10.0.1")
	const workers = 8
	const perWorker = 25
	type created struct {
		id        string
		finalized bool
	}
	idCh := make(chan created, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := h.server.NewOrder(acme.OrderRequest{
					Hostnames: []string{"renew.gov.br"},
					KeyID:     fmt.Sprintf("%032x", w*perWorker+i),
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Half the orders reach a terminal state (challenge
				// failure — nothing provisioned) and must retire.
				fin := i%2 == 0
				if fin {
					h.server.Finalize(context.Background(), resp.OrderID)
				}
				idCh <- created{resp.OrderID, fin}
			}
		}(w)
	}
	wg.Wait()
	close(idCh)
	seen := make(map[string]bool)
	retired := 0
	for c := range idCh {
		if seen[c.id] {
			t.Fatalf("duplicate order id %s", c.id)
		}
		seen[c.id] = true
		_, err := h.server.Finalize(context.Background(), c.id)
		if gone := errors.Is(err, acme.ErrUnknownOrder); gone != c.finalized {
			t.Fatalf("order %s: finalized=%v but retired=%v (err %v)", c.id, c.finalized, gone, err)
		}
		if c.finalized {
			retired++
		}
	}
	// Even i (13 of 25 per worker) reached a terminal finalize and retired.
	if want := workers * (perWorker - perWorker/2); retired != want {
		t.Fatalf("retired = %d, want %d", retired, want)
	}
}
