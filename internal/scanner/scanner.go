// Package scanner implements the measurement pipeline of §4.2.3: for every
// hostname it resolves DNS, probes port 80 and port 443, performs the full
// TLS handshake, retrieves the certificate chain together with the peer
// certificate, validates the chain against the configured trust store, and
// classifies failures into the paper's Table 2 taxonomy. Hosts failing to
// connect are retried up to three times before being declared unavailable.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/dnssim"
	"repro/internal/hosting"
	"repro/internal/httpsim"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/tlssim"
	"repro/internal/truststore"
	"repro/internal/verify"
)

// Dialer abstracts the network (satisfied by *simnet.Network).
type Dialer interface {
	Dial(ctx context.Context, ep netip.AddrPort) (net.Conn, error)
}

// Resolver abstracts DNS (satisfied by *dnssim.Zone).
type Resolver interface {
	LookupA(hostname string) ([]netip.Addr, error)
}

// FirstAResolver is an optional Resolver fast path: resolvers that can
// hand back the one address the pipeline dials without allocating the
// full record set.
type FirstAResolver interface {
	LookupFirstA(hostname string) (netip.Addr, error)
}

// FirstA resolves the address the pipeline dials (the first A record,
// §5.4), using the resolver's allocation-free fast path when it has one.
// A zero Addr with nil error means the name resolved to no addresses.
func FirstA(r Resolver, hostname string) (netip.Addr, error) {
	if f, ok := r.(FirstAResolver); ok {
		return f.LookupFirstA(hostname)
	}
	addrs, err := r.LookupA(hostname)
	if err != nil || len(addrs) == 0 {
		return netip.Addr{}, err
	}
	return addrs[0], nil
}

// Retry backoff: the delay before the first re-attempt, doubled (plus
// deterministic jitter) for each further one, up to the cap.
const (
	backoffBase = 500 * time.Millisecond
	backoffMax  = 8 * time.Second
)

// Config tunes a scan.
type Config struct {
	// Concurrency bounds parallel host probes.
	Concurrency int
	// Retries is the number of re-attempts after connection failures; the
	// paper used 3.
	Retries int
	// Store is the trust store chains are validated against; the paper's
	// default is the conservative Apple-shaped store.
	Store *truststore.Store
	// Now is the scan time for certificate validity.
	Now time.Time
	// Clock paces retry backoff on simulated time: a collapsing virtual
	// clock, so backoff advances simulated time only and nothing in a scan
	// waits on wall time. Timeouts are simnet faults that fail the dial at
	// once, not deadlines. nil defaults to a fresh virtual clock.
	Clock *simclock.Virtual
	// Seed drives the deterministic backoff jitter.
	Seed int64
	// Breaker, when non-nil, stops hammering a hosting provider after
	// repeated consecutive dial timeouts; affected hosts record
	// ExcCircuitOpen.
	Breaker *Breaker
	// Journal, when non-nil, checkpoints every completed result so an
	// interrupted ScanAll resumes from the last completed host.
	Journal *Journal
	// VerifyCache, when non-nil, memoizes the chain-structural half of
	// verification across hosts that present the same chain (the long tail
	// of shared wildcards and internal CAs). Scan results are identical
	// with and without it. Entries are keyed by the scan time (Now) too,
	// so an entry only hits for scans at that same instant. The cache is
	// unbounded and lives as long as the process holds it.
	VerifyCache *verify.Cache
	// ChainCache, when non-nil, deduplicates parsed certificate chains
	// across handshakes presenting the same payload. Like VerifyCache it
	// is unbounded, keeps every distinct chain it has parsed for as long
	// as the process holds it, and leaves scan results unchanged.
	ChainCache *cert.ChainCache
}

// DefaultConfig mirrors the paper's scanning posture.
func DefaultConfig(store *truststore.Store, now time.Time) Config {
	return Config{
		Concurrency: 64,
		Retries:     3,
		Store:       store,
		Now:         now,
		Clock:       simclock.NewVirtual(now),
		VerifyCache: verify.NewCache(),
		ChainCache:  cert.NewChainCache(),
	}
}

// Scanner probes hostnames over the (simulated) Internet.
type Scanner struct {
	Dialer   Dialer
	Resolver Resolver
	Class    *hosting.Classifier
	Cfg      Config
}

// New assembles a scanner.
func New(d Dialer, r Resolver, class *hosting.Classifier, cfg Config) *Scanner {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewVirtual(cfg.Now)
	}
	if class == nil {
		class = hosting.DefaultClassifier()
	}
	return &Scanner{Dialer: d, Resolver: r, Class: class, Cfg: cfg}
}

// Exception classifies TLS/connection-level failures (the "Exceptions"
// block of Table 2).
type Exception int

// Exception kinds.
const (
	ExcNone Exception = iota
	ExcUnsupportedProtocol
	ExcTimeout
	ExcRefused
	ExcReset
	ExcWrongVersion
	ExcAlertInternal
	ExcAlertHandshake
	ExcAlertProtoVersion
	ExcOther
	// ExcCircuitOpen marks a host the scanner deliberately skipped because
	// its hosting provider's circuit breaker was open — a degraded result,
	// not a measurement of the host itself.
	ExcCircuitOpen
)

// String names the exception the way Table 2 does.
func (e Exception) String() string {
	switch e {
	case ExcNone:
		return "none"
	case ExcUnsupportedProtocol:
		return "unsupported SSL protocol"
	case ExcTimeout:
		return "timed out"
	case ExcRefused:
		return "connection refused"
	case ExcReset:
		return "connection reset by peer"
	case ExcWrongVersion:
		return "wrong SSL version number"
	case ExcAlertInternal:
		return "TLSv1 alert internal error"
	case ExcAlertHandshake:
		return "SSLv3 alert handshake failure"
	case ExcAlertProtoVersion:
		return "TLSv1 alert internal protocol version"
	case ExcOther:
		return "other exception"
	case ExcCircuitOpen:
		return "circuit breaker open"
	default:
		return ""
	}
}

// Result is the outcome of scanning one hostname.
type Result struct {
	Hostname string
	// IP is the first resolved A record (§5.4 uses the first address).
	IP netip.Addr
	// DNSError marks resolution failures.
	DNSError bool
	// Available means the host produced a 200 on http or https, or
	// advertised an https upgrade.
	Available bool
	// ServesHTTP means a 200 over plain http.
	ServesHTTP bool
	// RedirectsToHTTPS means port 80 upgraded the client.
	RedirectsToHTTPS bool
	// AttemptsHTTPS means port 443 engaged at the TLS level or an upgrade
	// pointed there.
	AttemptsHTTPS bool
	// ServesHTTPS means a 200 was retrieved over a completed handshake.
	ServesHTTPS bool
	// HSTS reports a Strict-Transport-Security header on the https reply.
	HSTS bool
	// TLSVersion is the negotiated protocol version, when the handshake
	// completed.
	TLSVersion tlssim.Version
	// Chain is the retrieved certificate chain, leaf first.
	Chain []*cert.Certificate
	// Verify is the chain-validation outcome (valid when Chain non-nil).
	Verify verify.Result
	// Exception records TLS/connection-level failures on 443.
	Exception Exception
	// ExceptionDetail carries the underlying error text.
	ExceptionDetail string
	// Provider and HostKind classify the hosting of the resolved IP.
	Provider string
	HostKind hosting.Kind
	// Attempts counts connection attempts made on port 443.
	Attempts int
}

// HasHTTPS reports whether the host attempts https at all — the paper's
// "content served on HTTPS" population includes hosts whose handshakes
// fail.
func (r *Result) HasHTTPS() bool { return r.AttemptsHTTPS }

// ValidHTTPS reports a completed handshake with a fully valid chain.
func (r *Result) ValidHTTPS() bool {
	return len(r.Chain) > 0 && r.Verify.Valid()
}

// Scan probes a single hostname.
func (s *Scanner) Scan(ctx context.Context, hostname string) Result {
	res := Result{Hostname: hostname}
	ip, err := FirstA(s.Resolver, hostname)
	if err != nil || !ip.IsValid() {
		res.DNSError = true
		if errors.Is(err, dnssim.ErrServFail) {
			res.ExceptionDetail = err.Error()
		}
		return res
	}
	res.IP = ip
	res.Provider, res.HostKind = s.Class.Classify(res.IP)

	// Port 80 is probed first: how a refused 443 is reported depends on
	// whether port 80 advertised an https upgrade, and a configured
	// circuit breaker consumes dial outcomes in this order.
	s.probeHTTP(ctx, &res)
	s.probeHTTPS(ctx, &res)

	res.Available = res.ServesHTTP || res.ServesHTTPS || res.RedirectsToHTTPS ||
		len(res.Chain) > 0 || res.Exception.ServerResponded()
	return res
}

// ServerResponded reports whether the exception implies the server engaged
// at the TLS layer (as opposed to connection-level silence), which makes
// the host count as reachable in the paper's accounting.
func (e Exception) ServerResponded() bool {
	switch e {
	case ExcUnsupportedProtocol, ExcWrongVersion, ExcAlertInternal,
		ExcAlertHandshake, ExcAlertProtoVersion:
		return true
	default:
		// Timeouts, refusals, resets, open breakers, and unclassifiable
		// failures are connection-level silence.
		return false
	}
}

func (s *Scanner) probeHTTP(ctx context.Context, res *Result) {
	conn, err := s.dialRetry(ctx, netip.AddrPortFrom(res.IP, 80), nil, s.breakerKey(res))
	if err != nil {
		return
	}
	defer conn.Close()
	resp, err := httpsim.Get(conn, res.Hostname, "/")
	if err != nil {
		return
	}
	switch {
	case resp.StatusCode == 200:
		res.ServesHTTP = true
	case resp.IsRedirect():
		loc := resp.Location()
		if len(loc) >= 8 && loc[:8] == "https://" {
			res.RedirectsToHTTPS = true
			res.AttemptsHTTPS = true
		}
	}
}

// probeHTTPS probes port 443 and records its outcome. It runs after
// probeHTTP, whose RedirectsToHTTPS decides how a refusal is reported.
func (s *Scanner) probeHTTPS(ctx context.Context, res *Result) {
	conn, err := s.dialRetry(ctx, netip.AddrPortFrom(res.IP, 443), res, s.breakerKey(res))
	if err != nil {
		if errors.Is(err, ErrCircuitOpen) {
			// Deliberately skipped, not measured: record the degradation
			// without claiming anything about the host's TLS posture.
			res.Exception = ExcCircuitOpen
			res.ExceptionDetail = err.Error()
			return
		}
		// Connection-level failure. A plain refusal with no upgrade hint
		// means the host simply does not do https.
		exc := classifyConnErr(err)
		if exc == ExcRefused && !res.RedirectsToHTTPS {
			return
		}
		res.AttemptsHTTPS = true
		res.Exception = exc
		res.ExceptionDetail = err.Error()
		return
	}
	defer conn.Close()

	ccfg := tlssim.DefaultClientConfig(res.Hostname)
	ccfg.ChainCache = s.Cfg.ChainCache
	tc, err := tlssim.ClientHandshake(conn, ccfg)
	res.AttemptsHTTPS = true
	if err != nil {
		res.Exception, res.ExceptionDetail = classifyTLSErr(err)
		return
	}
	state := tc.ConnectionState()
	res.TLSVersion = state.Version
	res.Chain = state.Chain
	res.Verify = (&verify.Verifier{Store: s.Cfg.Store, Now: s.Cfg.Now, Cache: s.Cfg.VerifyCache}).
		Verify(state.Chain, res.Hostname)

	resp, err := httpsim.Get(tc, res.Hostname, "/")
	if err == nil && resp.StatusCode == 200 {
		res.ServesHTTPS = true
		res.HSTS = resp.HSTS()
	}
}

// ErrCircuitOpen is returned by dialRetry when the endpoint's provider
// circuit breaker is open and the dial was skipped entirely.
var ErrCircuitOpen = errors.New("scanner: circuit breaker open")

// dialRetry dials with the configured retry budget, mirroring the paper's
// three re-queues on connection failure, with exponential backoff between
// attempts. Deterministic failures (national firewall blocks) are not
// retried — re-dialing a censored route cannot succeed and only burns scan
// budget. When a circuit breaker is configured and open for the
// endpoint's provider, the dial is skipped with ErrCircuitOpen.
func (s *Scanner) dialRetry(ctx context.Context, ep netip.AddrPort, res *Result, key string) (net.Conn, error) {
	var lastErr error
	attempts := 1 + s.Cfg.Retries
	for i := 0; i < attempts; i++ {
		if s.Cfg.Breaker != nil && !s.Cfg.Breaker.Allow(key) {
			if lastErr != nil {
				// The breaker tripped mid-retry; report the real failure.
				return nil, lastErr
			}
			return nil, fmt.Errorf("%w: provider %q", ErrCircuitOpen, key)
		}
		if res != nil {
			res.Attempts++
		}
		conn, err := s.Dialer.Dial(ctx, ep)
		if err == nil {
			if s.Cfg.Breaker != nil {
				s.Cfg.Breaker.Success(key)
			}
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, simnet.ErrFirewalled) {
			// Censorship, not a provider outage: no breaker signal, and
			// re-dialing a censored route cannot succeed.
			break
		}
		if s.Cfg.Breaker != nil {
			if simnet.IsTimeout(err) {
				s.Cfg.Breaker.Failure(key)
			} else {
				// A refusal or reset is an answer: the provider's network is
				// up, whatever this host thinks of us. Only silence counts
				// toward an outage — otherwise every http-only host's closed
				// port 443 would open the circuit for its whole provider.
				s.Cfg.Breaker.Success(key)
			}
		}
		if i+1 == attempts {
			break
		}
		if err := s.Cfg.Clock.Sleep(ctx, s.backoff(ep, i)); err != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// backoff is the delay before re-attempt number attempt (0-based) on
// endpoint ep, jittered by the scan seed and the endpoint.
func (s *Scanner) backoff(ep netip.AddrPort, attempt int) time.Duration {
	key, _ := ep.MarshalBinary()
	return simclock.Backoff(backoffBase, backoffMax, s.Cfg.Seed, attempt, key)
}

// breakerKey groups endpoints for the circuit breaker: the hosting
// provider when classified, otherwise the host's /24 prefix.
func (s *Scanner) breakerKey(res *Result) string {
	if res.Provider != "" {
		return res.Provider
	}
	if !res.IP.IsValid() {
		return ""
	}
	p, err := res.IP.Prefix(24)
	if err != nil {
		return res.IP.String()
	}
	return p.String()
}

func classifyConnErr(err error) Exception {
	switch {
	case simnet.IsTimeout(err):
		return ExcTimeout
	case simnet.IsRefused(err):
		return ExcRefused
	case simnet.IsReset(err):
		return ExcReset
	default:
		return ExcOther
	}
}

func classifyTLSErr(err error) (Exception, string) {
	var alert tlssim.AlertError
	switch {
	case errors.Is(err, tlssim.ErrUnsupportedProtocol):
		return ExcUnsupportedProtocol, err.Error()
	case errors.Is(err, tlssim.ErrWrongVersionNumber):
		return ExcWrongVersion, err.Error()
	case errors.As(err, &alert):
		switch {
		case alert.Description == tlssim.AlertInternalError:
			return ExcAlertInternal, alert.Error()
		case alert.Description == tlssim.AlertHandshakeFailure:
			return ExcAlertHandshake, alert.Error()
		case alert.Description == tlssim.AlertProtocolVersion:
			return ExcAlertProtoVersion, alert.Error()
		}
		return ExcOther, alert.Error()
	case simnet.IsTimeout(err):
		return ExcTimeout, err.Error()
	case simnet.IsReset(err):
		return ExcReset, err.Error()
	case simnet.IsRefused(err):
		return ExcRefused, err.Error()
	default:
		return ExcOther, err.Error()
	}
}

// ScanAll probes every hostname with bounded concurrency and returns one
// result per hostname, in input order. Hosts skipped after context
// cancellation still carry their Hostname, so downstream analysis never
// sees anonymous rows. When a Journal is configured, hosts it already
// holds are restored without re-scanning and every newly completed host
// is checkpointed, so an interrupted run resumes from the last completed
// host.
func (s *Scanner) ScanAll(ctx context.Context, hostnames []string) []Result {
	journal := s.Cfg.Journal
	results := make([]Result, len(hostnames))

	// A fixed pool of workers drains an index channel and writes each
	// result into its own slot — no goroutine churn per host and no
	// reordering step.
	workers := max(1, min(s.Cfg.Concurrency, len(hostnames)))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range idx {
				r := s.Scan(ctx, hostnames[i])
				if journal != nil && ctx.Err() == nil {
					// Only completed scans are checkpointed; a scan degraded
					// by cancellation must be redone on resume.
					journal.Append(r)
				}
				results[i] = r
			}
		}()
	}

	// Restore journaled hosts inline, stop dispatching at the first
	// non-journaled host after cancellation, and fill the rest with
	// hostname-only placeholders.
	for i, h := range hostnames {
		if journal != nil {
			if prev, ok := journal.Lookup(h); ok {
				results[i] = prev
				continue
			}
		}
		if ctx.Err() != nil {
			for j := i; j < len(hostnames); j++ {
				results[j] = Result{Hostname: hostnames[j]}
			}
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}
