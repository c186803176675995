// ACME issuance walkthrough (§3.1, §8.1, §8.2): stand up a Let's
// Encrypt-style CA on the simulated network, obtain a certificate via the
// http-01 challenge like certbot would, then demonstrate the paper's two
// issuance-policy recommendations — CAA enforcement and the §8.1 key-reuse
// refusal.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"repro/internal/acme"
	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/dnssim"
	"repro/internal/httpsim"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/verify"
)

func main() {
	rng := rand.New(rand.NewSource(1)) //lint:allow globalrand the example's literal seed IS its study seed; every stream below is threaded from this one
	network := simnet.New()
	zone := dnssim.NewZone()
	registry := ca.NewRegistry(rng)
	store := registry.BuildStore("apple", ca.AppleCounts, rng)

	// The CA side: a Let's Encrypt-style ACME endpoint.
	authority := registry.MustLookup("Let's Encrypt Authority X3")
	clock := simclock.NewVirtual(time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC))
	server := acme.NewServer(authority, "letsencrypt.org", zone, network, clock)
	server.EnforceKeyReuse = true // the §8.1 recommendation, switched on
	apiAddr := netip.MustParseAddrPort("172.30.0.1:80")
	network.Handle(apiAddr, server.Handle)

	// The webmaster side: a government site that can serve challenge
	// tokens from /.well-known/acme-challenge/.
	var mu sync.Mutex
	tokens := map[string]string{}
	serveSite := func(hostname, ip string) {
		addr := netip.MustParseAddr(ip)
		zone.AddA(hostname, addr)
		network.Handle(netip.AddrPortFrom(addr, 80), func(conn net.Conn) {
			defer conn.Close()
			req, err := httpsim.ReadRequest(bufio.NewReader(conn))
			if err != nil {
				return
			}
			if strings.HasPrefix(req.Path, acme.ChallengePath) {
				mu.Lock()
				content := tokens[strings.TrimPrefix(req.Path, acme.ChallengePath)]
				mu.Unlock()
				if content != "" {
					httpsim.WriteResponse(conn, 200, httpsim.Header{Close: true}, []byte(content))
					return
				}
			}
			httpsim.WriteResponse(conn, 404, httpsim.Header{Close: true}, nil)
		})
	}
	serveSite("portal.gov.br", "190.20.0.1")
	serveSite("tax.gov.co", "190.20.0.2")

	client := &acme.Client{
		Server:     apiAddr,
		ServerName: "acme-v02.api.letsencrypt.org",
		Net:        network,
		Vantage:    "webmaster",
		Provision: func(hostname, token string) error {
			mu.Lock()
			defer mu.Unlock()
			tokens[token] = token
			return nil
		},
	}
	ctx := context.Background()

	// 1. A normal certbot run.
	key := cert.NewKey(rng, cert.KeyRSA, 2048)
	chain, err := client.Obtain(ctx, []string{"portal.gov.br"}, key)
	if err != nil {
		log.Fatal(err)
	}
	v := &verify.Verifier{Store: store, Now: server.Clock.Now().AddDate(0, 1, 0)}
	res := v.Verify(chain, "portal.gov.br")
	fmt.Printf("issued %s: %d-day certificate, chain valid=%v\n",
		chain[0].Subject.CommonName, chain[0].ValidityDays(), res.Valid())

	// 2. CAA enforcement (§5.3.4/§8.2): the domain authorizes only DigiCert.
	zone.AddCAA("tax.gov.co", dnssim.CAARecord{Tag: "issue", Value: "digicert.com"})
	if _, err := client.Obtain(ctx, []string{"tax.gov.co"}, cert.NewKey(rng, cert.KeyRSA, 2048)); err != nil {
		fmt.Printf("CAA enforcement: %v\n", err)
	}

	// 3. The §8.1 key-reuse policy: reusing portal.gov.br's key for an
	// unrelated government is refused at issuance time.
	zone.AddCAA("tax.gov.co", dnssim.CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	if _, err := client.Obtain(ctx, []string{"tax.gov.co"}, key); err != nil {
		fmt.Printf("key-reuse policy: %v\n", err)
	}
	fmt.Println("the shared-private-key clusters of §5.3.3 would never have been issued")
}
