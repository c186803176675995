// Package acme implements a miniature ACME certificate authority in the
// style of RFC 8555, the automation behind Let's Encrypt that the paper
// credits for free, easy https (§3.1) and builds its recommendations on
// (§8.1): the server issues http-01 challenges, validates them by fetching
// the token over the (simulated) network, enforces DNS CAA authorization
// (§5.3.4), applies Let's Encrypt-style new-order rate limits, and —
// implementing the paper's §8.1 proposal — can refuse to certify a public
// key that is already bound to an unrelated hostname.
package acme

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/dnssim"
	"repro/internal/httpsim"
	"repro/internal/simclock"
)

// ChallengePath is the http-01 well-known prefix.
const ChallengePath = "/.well-known/acme-challenge/"

// Protocol errors, mirrored in HTTP responses as JSON problem documents.
// Errors crossing the HTTP boundary come back as *ProblemError (or
// *RateLimitError), which errors.Is-match these sentinels through their
// problem code, so callers classify failures the same way on both sides
// of the wire.
var (
	ErrCAARefused    = errors.New("acme: CAA record forbids issuance")
	ErrChallenge     = errors.New("acme: challenge validation failed")
	ErrKeyReuse      = errors.New("acme: public key already certified for an unrelated hostname")
	ErrUnknownOrder  = errors.New("acme: unknown order")
	ErrOrderNotReady = errors.New("acme: order not ready")
	ErrRateLimited   = errors.New("acme: rate limited")
)

// Dialer abstracts the network (satisfied by *simnet.Network).
type Dialer interface {
	Dial(ctx context.Context, ep netip.AddrPort) (net.Conn, error)
}

// RateLimits is the server's Let's Encrypt-style admission policy for new
// orders. A limit is enforced only when both its count and its window are
// positive; the zero value disables all limiting.
type RateLimits struct {
	// PerDomain caps new orders per registered domain (RegisteredDomain)
	// within PerDomainWindow — the "certificates per registered domain"
	// limit.
	PerDomain       int
	PerDomainWindow time.Duration
	// Global caps new orders across all domains within GlobalWindow — the
	// "new orders per account" limit.
	Global       int
	GlobalWindow time.Duration
}

// RateLimitError is the typed refusal a rate-limited new-order gets. It
// unwraps to ErrRateLimited, and RetryAfter tells a well-behaved client
// when the oldest in-window grant expires — reschedule there instead of
// hot-retrying.
type RateLimitError struct {
	// Scope is "new-orders" (the global limit) or "registered-domain".
	Scope string
	// Domain is the offending registered domain ("" for the global limit).
	Domain string
	// RetryAfter is when a slot frees.
	RetryAfter time.Time
	// Detail carries the server's rendering when the error crossed the
	// HTTP boundary.
	Detail string
}

// Error implements error.
func (e *RateLimitError) Error() string {
	if e.Detail != "" {
		return e.Detail
	}
	if e.Domain != "" {
		return fmt.Sprintf("acme: rate limited: too many orders for registered domain %q, retry after %s",
			e.Domain, e.RetryAfter.Format(time.RFC3339))
	}
	return fmt.Sprintf("acme: rate limited: too many new orders, retry after %s",
		e.RetryAfter.Format(time.RFC3339))
}

// Is makes errors.Is(err, ErrRateLimited) match.
func (e *RateLimitError) Is(target error) bool { return target == ErrRateLimited }

// ProblemError is a typed ACME problem document: the client-side
// reconstruction of a server refusal, carrying the machine-readable code
// so callers can classify without string matching.
type ProblemError struct {
	Status int
	Code   string
	Detail string
}

// Error implements error.
func (e *ProblemError) Error() string {
	if e.Detail != "" {
		return e.Detail
	}
	return fmt.Sprintf("acme: problem %q (status %d)", e.Code, e.Status)
}

// Is maps problem codes back onto the package sentinels.
func (e *ProblemError) Is(target error) bool {
	switch target {
	case ErrCAARefused:
		return e.Code == "caa"
	case ErrKeyReuse:
		return e.Code == "keyReuse"
	case ErrChallenge:
		return e.Code == "challenge"
	case ErrUnknownOrder:
		return e.Code == "unknownOrder"
	case ErrOrderNotReady:
		return e.Code == "orderNotReady"
	case ErrRateLimited:
		return e.Code == "rateLimited"
	}
	return false
}

// problemCode renders an error as its wire code.
func problemCode(err error) string {
	switch {
	case errors.Is(err, ErrRateLimited):
		return "rateLimited"
	case errors.Is(err, ErrCAARefused):
		return "caa"
	case errors.Is(err, ErrKeyReuse):
		return "keyReuse"
	case errors.Is(err, ErrChallenge):
		return "challenge"
	case errors.Is(err, ErrUnknownOrder):
		return "unknownOrder"
	case errors.Is(err, ErrOrderNotReady):
		return "orderNotReady"
	}
	return "malformed"
}

// Server is the ACME certificate authority.
type Server struct {
	// Authority signs the issued certificates.
	Authority *ca.Authority
	// CADomain is the identity checked against CAA records
	// (e.g. "letsencrypt.org").
	CADomain string
	// Zone resolves identifiers and CAA policy.
	Zone *dnssim.Zone
	// Net fetches http-01 challenges.
	Net Dialer
	// EnforceKeyReuse activates the §8.1 recommendation: a key already
	// certified for a hostname can only be reused by that hostname or its
	// subdomains.
	EnforceKeyReuse bool
	// Clock supplies issuance and rate-limit time. There is no default:
	// NewServer requires an explicit clock, so issued NotBefore/NotAfter
	// advance with whatever (virtual) timeline the caller runs on.
	Clock simclock.Clock
	// Limits is the new-order admission policy; the zero value admits
	// everything.
	Limits RateLimits

	mu sync.Mutex
	// orders holds the live orders; a terminal finalize deletes its
	// entry, keeping a long-running renewal fleet's bookkeeping bounded.
	orders map[string]*order
	seq    int
	policy *ReusePolicy
	// grants holds the Limits windows' admitted orders.
	grants Limiter
}

type order struct {
	id        string
	hostnames []string
	key       cert.PublicKey
	tokens    map[string]string // hostname -> token
}

// NewServer assembles an ACME server running on the given clock. The
// clock is mandatory — issuance time is always the caller's timeline,
// virtual or real; there is no fixed-epoch or wall-time fallback.
func NewServer(authority *ca.Authority, caDomain string, zone *dnssim.Zone, d Dialer, clk simclock.Clock) *Server {
	if clk == nil {
		panic("acme: NewServer requires a clock")
	}
	return &Server{
		Authority: authority,
		CADomain:  caDomain,
		Zone:      zone,
		Net:       d,
		Clock:     clk,
		orders:    make(map[string]*order),
		policy:    NewReusePolicy(),
	}
}

// OrderRequest is the client's new-order payload.
type OrderRequest struct {
	Hostnames []string `json:"hostnames"`
	KeyType   string   `json:"key_type"` // "RSA" or "EC"
	KeyBits   int      `json:"key_bits"`
	KeyID     string   `json:"key_id"` // hex fingerprint of the key pair
}

// OrderResponse returns the order ID and per-hostname challenge tokens.
type OrderResponse struct {
	OrderID string            `json:"order_id"`
	Tokens  map[string]string `json:"tokens"`
}

// FinalizeRequest asks the server to validate and issue.
type FinalizeRequest struct {
	OrderID string `json:"order_id"`
}

// Problem is the JSON document a refused API request gets in place of its
// result. A successful finalize returns no JSON at all: the body is the
// raw cert.EncodeChain bytes, typed ChainContentType (RFC 8555 §7.4.2
// makes the certificate a download, not a field).
type Problem struct {
	// Error is the human-readable problem description.
	Error string `json:"error,omitempty"`
	// Code is the machine-readable problem code.
	Code string `json:"code,omitempty"`
	// RetryAfter is the RFC 3339 retry hint on rate-limit refusals.
	RetryAfter string `json:"retry_after,omitempty"`
}

// ChainContentType types a finalize response carrying the issued chain.
const ChainContentType = "application/vnd.govhttps.cert-chain"

// RegisteredDomain approximates the eTLD+1 grouping CAs rate-limit on:
// the last two labels, or the last three when the name sits under a
// two-part public suffix like gov.uk or go.kr. Good enough for the
// study's government namespace without carrying the public-suffix list.
func RegisteredDomain(hostname string) string {
	hostname = strings.TrimPrefix(strings.ToLower(hostname), "*.")
	labels := strings.Split(hostname, ".")
	n := len(labels)
	if n <= 2 {
		return hostname
	}
	if len(labels[n-1]) == 2 && multiPartSLD[labels[n-2]] {
		return strings.Join(labels[n-3:], ".")
	}
	return strings.Join(labels[n-2:], ".")
}

// multiPartSLD lists second-level labels that form two-part public
// suffixes under ccTLDs (gov.uk, go.kr, gob.mx, gouv.fr, ...).
var multiPartSLD = map[string]bool{
	"gov": true, "go": true, "gob": true, "gouv": true, "gub": true,
	"mil": true, "edu": true, "ac": true, "co": true, "com": true,
	"or": true, "org": true, "ne": true, "net": true,
}

// Limiter holds the grants of RateLimits' sliding windows, each in
// ascending time order. The server enforces its limits through one; a
// client that mirrors the server's limits through another admits exactly
// the orders the server would.
type Limiter struct {
	global []time.Time
	domain map[string][]time.Time
}

// Admit applies lim to one new order for the given distinct registered
// domains at time now: the global window first, then each domain's
// window in order. An admitted order is recorded in every window it was
// checked against. A refused one records nothing; the returned error
// names the refusing window and when its oldest grant expires.
func (l *Limiter) Admit(lim RateLimits, domains []string, now time.Time) (RateLimitError, bool) {
	global := lim.Global > 0 && lim.GlobalWindow > 0
	if global {
		l.global = pruneGrants(l.global, now.Add(-lim.GlobalWindow))
		if len(l.global) >= lim.Global {
			return RateLimitError{Scope: "new-orders", RetryAfter: l.global[0].Add(lim.GlobalWindow)}, false
		}
	}
	if lim.PerDomain > 0 && lim.PerDomainWindow > 0 {
		if l.domain == nil {
			l.domain = make(map[string][]time.Time)
		}
		for _, d := range domains {
			g := pruneGrants(l.domain[d], now.Add(-lim.PerDomainWindow))
			l.domain[d] = g
			if len(g) >= lim.PerDomain {
				return RateLimitError{Scope: "registered-domain", Domain: d, RetryAfter: g[0].Add(lim.PerDomainWindow)}, false
			}
		}
		for _, d := range domains {
			l.domain[d] = append(l.domain[d], now)
		}
	}
	if global {
		l.global = append(l.global, now)
	}
	return RateLimitError{}, true
}

// pruneGrants drops grants at or before the window floor. Grants are
// appended in clock order, so the live suffix is contiguous.
func pruneGrants(grants []time.Time, floor time.Time) []time.Time {
	i := 0
	for i < len(grants) && !grants[i].After(floor) {
		i++
	}
	if i == 0 {
		return grants
	}
	return append(grants[:0], grants[i:]...)
}

// registeredDomains returns the distinct registered domains of an
// order's hostnames, in first-seen order.
func registeredDomains(hostnames []string) []string {
	var domains []string
	for _, h := range hostnames {
		if d := RegisteredDomain(h); !slices.Contains(domains, d) {
			domains = append(domains, d)
		}
	}
	return domains
}

// NewOrder registers an order and mints challenge tokens, applying the
// configured rate limits first.
func (s *Server) NewOrder(req OrderRequest) (OrderResponse, error) {
	if len(req.Hostnames) == 0 {
		return OrderResponse{}, errors.New("acme: order without hostnames")
	}
	key, err := parseKey(req)
	if err != nil {
		return OrderResponse{}, err
	}
	now := s.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if refused, ok := s.grants.Admit(s.Limits, registeredDomains(req.Hostnames), now); !ok {
		return OrderResponse{}, &refused
	}
	s.seq++
	o := &order{
		id:        fmt.Sprintf("order-%06d", s.seq),
		hostnames: append([]string(nil), req.Hostnames...),
		key:       key,
		tokens:    make(map[string]string),
	}
	for i, h := range o.hostnames {
		o.tokens[strings.ToLower(h)] = fmt.Sprintf("tok-%06d-%d-%08x", s.seq, i, tokenHash(h, s.seq))
	}
	s.orders[o.id] = o
	return OrderResponse{OrderID: o.id, Tokens: copyTokens(o.tokens)}, nil
}

// Finalize validates every challenge and issues the certificate chain.
// Terminal outcomes — issuance, CAA or key-reuse refusal, failed
// validation — retire the order; a retry takes a fresh order (and a fresh
// rate-limit grant), exactly as a production CA accounts renewals.
func (s *Server) Finalize(ctx context.Context, orderID string) ([]*cert.Certificate, error) {
	s.mu.Lock()
	o, ok := s.orders[orderID]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownOrder
	}
	retire := func() {
		s.mu.Lock()
		delete(s.orders, orderID)
		s.mu.Unlock()
	}

	// §5.3.4 / §8.2: CAA records restrict which CAs may issue.
	for _, h := range o.hostnames {
		name := strings.TrimPrefix(strings.ToLower(h), "*.")
		if !s.Zone.AllowsIssuance(name, s.CADomain) {
			retire()
			return nil, fmt.Errorf("%w: %s restricts issuance", ErrCAARefused, name)
		}
	}

	// §8.1: refuse keys already bound to unrelated hostnames.
	if s.EnforceKeyReuse {
		if err := s.policy.Check(o.key.ID, o.hostnames); err != nil {
			retire()
			return nil, err
		}
	}

	// http-01: fetch each token over the network, exactly as the CA's
	// validation servers would.
	for _, h := range o.hostnames {
		name := strings.TrimPrefix(strings.ToLower(h), "*.")
		if err := s.validateHTTP01(ctx, name, o.tokens[strings.ToLower(h)]); err != nil {
			retire()
			return nil, err
		}
	}

	now := s.Clock.Now()
	chain := s.Authority.Issue(ca.Request{
		// Issue retains the slice; the order keeps using its own copy.
		Hostnames: append([]string(nil), o.hostnames...),
		Key:       o.key,
		NotBefore: now,
		// A derived serial keeps concurrent finalizes off the authority's
		// unsynchronized counter and independent of completion order.
		Serial: issuanceSerial(o.hostnames[0], now),
	})
	retire()
	s.policy.Record(o.key.ID, o.hostnames)
	return chain, nil
}

// issuanceSerial derives a deterministic certificate serial from the
// subject and issuance instant. The high bit keeps the space disjoint
// from the authority's counter-assigned serials.
func issuanceSerial(hostname string, at time.Time) uint64 {
	h := fnv.New64a()
	h.Write([]byte(hostname))
	var buf [8]byte
	n := at.UnixNano()
	for i := 0; i < 8; i++ {
		buf[i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64() | 1<<63
}

// ReusePolicy implements the §8.1 recommendation as a standalone rule: a
// previously certified key may only recertify for the same hostname or a
// subdomain of one it already holds. The experiment registry replays the
// world's issuance history through it to quantify what the policy would
// have blocked.
type ReusePolicy struct {
	mu     sync.Mutex
	owners map[cert.KeyID][]string
}

// NewReusePolicy creates an empty policy state.
func NewReusePolicy() *ReusePolicy {
	return &ReusePolicy{owners: make(map[cert.KeyID][]string)}
}

// Check returns ErrKeyReuse when the key is already certified for a
// hostname unrelated to every requested name.
func (p *ReusePolicy) Check(key cert.KeyID, hostnames []string) error {
	p.mu.Lock()
	owners := append([]string(nil), p.owners[key]...)
	p.mu.Unlock()
	if len(owners) == 0 {
		return nil
	}
	for _, h := range hostnames {
		name := strings.TrimPrefix(strings.ToLower(h), "*.")
		allowed := false
		for _, owner := range owners {
			owner = strings.TrimPrefix(strings.ToLower(owner), "*.")
			if name == owner || strings.HasSuffix(name, "."+owner) ||
				strings.HasSuffix(owner, "."+name) {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("%w: key already certified for %v, requested %s",
				ErrKeyReuse, owners, name)
		}
	}
	return nil
}

// Record registers a successful issuance.
func (p *ReusePolicy) Record(key cert.KeyID, hostnames []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.owners[key] = append(p.owners[key], hostnames...)
}

func (s *Server) validateHTTP01(ctx context.Context, hostname, token string) error {
	if token == "" {
		return fmt.Errorf("%w: no token for %s", ErrChallenge, hostname)
	}
	addrs, err := s.Zone.LookupA(hostname)
	if err != nil || len(addrs) == 0 {
		return fmt.Errorf("%w: %s does not resolve", ErrChallenge, hostname)
	}
	conn, err := s.Net.Dial(ctx, netip.AddrPortFrom(addrs[0], 80))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrChallenge, hostname, err)
	}
	defer conn.Close()
	resp, err := httpsim.Get(conn, hostname, ChallengePath+token)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrChallenge, hostname, err)
	}
	if resp.StatusCode != 200 || strings.TrimSpace(string(resp.Body)) != token {
		return fmt.Errorf("%w: %s served %d %q", ErrChallenge, hostname, resp.StatusCode, resp.Body)
	}
	return nil
}

// Handle serves the ACME HTTP API — POST /acme/new-order and POST
// /acme/finalize with JSON bodies — on one kept-alive connection: it
// answers requests in turn until the peer closes the connection, a read
// fails, or a request carries Connection: close.
func (s *Server) Handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		req, err := httpsim.ReadRequest(br)
		if err != nil {
			return
		}
		status, hdr, body := s.serve(req, buf[:0])
		buf = body
		hdr.Close = req.Close
		if httpsim.WriteResponse(conn, status, hdr, body) != nil || req.Close {
			return
		}
	}
}

// jsonHdr types the API's JSON answers.
var jsonHdr = httpsim.Header{ContentType: "application/json"}

// serve answers one API request, appending the body to b.
func (s *Server) serve(req *httpsim.Request, b []byte) (int, httpsim.Header, []byte) {
	problem := func(status int, err error) (int, httpsim.Header, []byte) {
		p := Problem{Error: err.Error(), Code: problemCode(err)}
		var rl *RateLimitError
		if errors.As(err, &rl) {
			p.RetryAfter = rl.RetryAfter.Format(time.RFC3339Nano)
		}
		return status, jsonHdr, appendProblem(b, &p)
	}
	switch {
	case req.Method == "POST" && req.Path == "/acme/new-order":
		or, err := decodeOrderRequest(req.Body)
		if err != nil {
			return problem(400, err)
		}
		resp, err := s.NewOrder(or)
		if err != nil {
			status := 400
			if errors.Is(err, ErrRateLimited) {
				status = 429
			}
			return problem(status, err)
		}
		return 200, jsonHdr, appendOrderResponse(b, &resp)
	case req.Method == "POST" && req.Path == "/acme/finalize":
		fr, err := decodeFinalizeRequest(req.Body)
		if err != nil {
			return problem(400, err)
		}
		chain, err := s.Finalize(context.Background(), fr.OrderID)
		if err != nil {
			status := 403
			if errors.Is(err, ErrUnknownOrder) {
				status = 404
			}
			return problem(status, err)
		}
		return 200, httpsim.Header{ContentType: ChainContentType}, cert.EncodeChain(chain)
	}
	return 404, httpsim.Header{}, append(b, "not found"...)
}

func parseKey(req OrderRequest) (cert.PublicKey, error) {
	var id cert.KeyID
	raw := req.KeyID
	if len(raw) != len(id)*2 {
		return cert.PublicKey{}, fmt.Errorf("acme: key id must be %d hex chars", len(id)*2)
	}
	if _, err := hex.Decode(id[:], []byte(raw)); err != nil {
		return cert.PublicKey{}, fmt.Errorf("acme: bad key id: %w", err)
	}
	t := cert.KeyRSA
	if strings.EqualFold(req.KeyType, "EC") {
		t = cert.KeyECDSA
	}
	bits := req.KeyBits
	if bits == 0 {
		bits = 2048
	}
	return cert.PublicKey{Type: t, Bits: bits, ID: id}, nil
}

func copyTokens(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in { //lint:allow maprange defensive map copy; callers receive an unordered map either way, so iteration order never escapes
		out[k] = v
	}
	return out
}

func tokenHash(s string, seq int) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h ^ uint32(seq*2654435761)
}
