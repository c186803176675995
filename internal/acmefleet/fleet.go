// Package acmefleet closes the paper's §8.1 remediation loop at scale: a
// long-running renewal fleet that enrolls misconfigured government hosts
// from a scan, drives http-01 orders through the simulated ACME CA on the
// virtual clock, and rotates freshly issued certificates into the serving
// world with zero downtime — the automated alternative to the manual
// disclosure campaign of §7.2, hardened the way production ACME clients
// are (acmetool-style renewal queue, deterministic backoff, rate-limit
// aware rescheduling, CAA-denial terminal classification, failure budget
// with parked/probation circuit breaking).
//
// Everything the fleet emits is bit-deterministic for a given seed and
// configuration, at any worker count: attempts are admitted in due order,
// outcomes are applied in admitted order behind a per-tick barrier,
// issuance time is the fleet's own manual clock (frozen within a tick),
// and certificate serials derive from hostname and instant rather than a
// shared counter. Two same-seed runs produce byte-identical snapshot
// streams.
package acmefleet

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/acme"
	"repro/internal/cert"
	"repro/internal/recommend"
	"repro/internal/resultset"
	"repro/internal/simclock"
	"repro/internal/world"
)

// State is a host's position in the fleet lifecycle.
type State int

// Fleet lifecycle states.
const (
	// FleetEnrolled hosts are scheduled but have not yet renewed.
	FleetEnrolled State = iota
	// FleetRenewed hosts hold a fleet-issued certificate and are
	// scheduled for their next renewal at expiry minus the window.
	FleetRenewed
	// FleetParked hosts exhausted their failure budget; the breaker is
	// open, with scheduled probation probes until those run out too.
	FleetParked
	// FleetDenied hosts hit a terminal policy refusal (CAA, key reuse)
	// that no retry can fix.
	FleetDenied
)

// String names the state.
func (s State) String() string {
	switch s {
	case FleetEnrolled:
		return "enrolled"
	case FleetRenewed:
		return "renewed"
	case FleetParked:
		return "parked"
	case FleetDenied:
		return "denied"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ErrClass buckets order failures for the error-decay analysis. The order
// is fixed — snapshots index histograms by it.
type ErrClass int

// Error classes, coarse on purpose: the decay analysis needs stable
// buckets, not full diagnostics.
const (
	// ErrNone marks success.
	ErrNone ErrClass = iota
	// ErrNetwork covers transport failures the client saw directly:
	// refused/reset/timed-out dials, mid-stream resets, truncated or
	// unparseable responses.
	ErrNetwork
	// ErrChallenge covers http-01 validation failures reported by the CA
	// (including network faults between the VA and the host — the client
	// cannot tell those apart, and neither can a real operator).
	ErrChallenge
	// ErrRateLimited covers 429s that slipped past client-side pacing.
	ErrRateLimited
	// ErrCAA is the terminal CAA-refusal class.
	ErrCAA
	// ErrKeyReuse is the terminal §8.1 policy-refusal class.
	ErrKeyReuse
	// ErrOther is everything else (unknown order, not ready, ...).
	ErrOther

	// NumErrClasses sizes histograms.
	NumErrClasses
)

// String names the class.
func (c ErrClass) String() string {
	switch c {
	case ErrNone:
		return "none"
	case ErrNetwork:
		return "network"
	case ErrChallenge:
		return "challenge"
	case ErrRateLimited:
		return "rate-limited"
	case ErrCAA:
		return "caa-denied"
	case ErrKeyReuse:
		return "key-reuse"
	case ErrOther:
		return "other"
	default:
		return fmt.Sprintf("ErrClass(%d)", int(c))
	}
}

// Classify buckets an order error. The acme package's typed problem
// errors keep their sentinel identity across the HTTP API, so this works
// identically for local and wire failures.
func Classify(err error) ErrClass {
	switch {
	case err == nil:
		return ErrNone
	case errors.Is(err, acme.ErrCAARefused):
		return ErrCAA
	case errors.Is(err, acme.ErrKeyReuse):
		return ErrKeyReuse
	case errors.Is(err, acme.ErrRateLimited):
		return ErrRateLimited
	case errors.Is(err, acme.ErrChallenge):
		return ErrChallenge
	case errors.Is(err, acme.ErrUnknownOrder), errors.Is(err, acme.ErrOrderNotReady):
		return ErrOther
	}
	return ErrNetwork
}

// Terminal reports whether the class never clears with retries.
func (c ErrClass) Terminal() bool { return c == ErrCAA || c == ErrKeyReuse }

// Config tunes one campaign. The zero value of every field has a usable
// default; Seed and Start should be set deliberately.
type Config struct {
	// Seed drives backoff jitter and per-host key derivation.
	Seed int64
	// Start is the campaign start on the virtual timeline (default: the
	// world's scan time when constructed via New).
	Start time.Time
	// Horizon is the simulated campaign length (default 120 days).
	Horizon time.Duration
	// Tick is the scheduler granularity (default 24h).
	Tick time.Duration
	// RenewWindow is how long before expiry a renewal comes due
	// (default 30 days, matching common ACME client defaults for 90-day
	// certificates).
	RenewWindow time.Duration
	// Workers is the order-dispatch concurrency per tick (default 4).
	// Output is byte-identical at any value.
	Workers int
	// BackoffBase/BackoffMax shape the retry schedule after transient
	// failures: exponential doubling with deterministic jitter, the
	// scanner's shape on the fleet's timescale (defaults 6h, 4 days).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FailureBudget is how many consecutive transient failures park a
	// host (default 4).
	FailureBudget int
	// Probation is the parked cooldown before a probe attempt
	// (default 10 days).
	Probation time.Duration
	// MaxProbes bounds probation probes; when they run out the host is
	// parked for good (default 2).
	MaxProbes int
	// Limits is the server-side admission policy, mirrored client-side
	// so the fleet paces itself instead of harvesting 429s.
	Limits acme.RateLimits
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 120 * 24 * time.Hour
	}
	if c.Tick <= 0 {
		c.Tick = 24 * time.Hour
	}
	if c.RenewWindow <= 0 {
		c.RenewWindow = 30 * 24 * time.Hour
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 6 * time.Hour
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 4 * 24 * time.Hour
	}
	if c.FailureBudget <= 0 {
		c.FailureBudget = 4
	}
	if c.Probation <= 0 {
		c.Probation = 10 * 24 * time.Hour
	}
	if c.MaxProbes < 0 {
		c.MaxProbes = 0
	} else if c.MaxProbes == 0 {
		c.MaxProbes = 2
	}
	return c
}

// Estate is the slice of the serving world the fleet touches: publishing
// http-01 tokens and deploying rotated certificates. *world.World
// implements it; tests may substitute fakes.
type Estate interface {
	SetChallenge(hostname, token string) bool
	ClearChallenge(hostname string)
	RotateCert(hostname string, chain []*cert.Certificate) bool
}

// APIAddr is the fleet's ACME endpoint on the simulated network, outside
// every world address block.
var APIAddr = netip.MustParseAddrPort("172.31.255.1:80")

// CAName is the issuing authority the fleet orders from.
const CAName = "Let's Encrypt Authority X3"

// caDomain is the CAA identity checked at issuance.
const caDomain = "letsencrypt.org"

// Fleet is one renewal campaign over one world.
type Fleet struct {
	Cfg    Config
	Estate Estate
	// Server is the ACME CA (exported so tests can tamper with limits
	// and policy).
	Server *acme.Server
	// Client is the fleet's ACME client.
	Client *acme.Client
	// Clock is the campaign clock: manual, stepped once per tick, shared
	// with the server so issuance time is frozen within a tick and
	// independent of worker interleaving.
	Clock *simclock.Virtual

	hosts  []*hostState // sorted by hostname, fixed after enrollment
	byName map[string]*hostState
	queue  dueHeap

	errTotals [NumErrClasses]int
	// Rate-limit horizons learned from 429s (the defensive path when the
	// mirror underestimates the server's real limits).
	nextGlobal time.Time
	nextDomain map[string]time.Time
	mirror     limiter
}

// hostState is the fleet's bookkeeping for one enrolled host.
type hostState struct {
	hostname string
	reason   recommend.Rule
	key      cert.PublicKey
	state    State
	class    ErrClass
	attempts int
	fails    int // consecutive transient failures since last success
	probes   int // probation probes scheduled since last success
	renewals int
	terminal bool
	due      time.Time
	expiry   time.Time
}

// New assembles a fleet over the world: stands the ACME CA up on the
// simulated network, enrolls every host the scan recommends AdoptHTTPS or
// FixCertificate for, and schedules them all due at campaign start.
func New(w *world.World, set *resultset.Set, cfg Config) *Fleet {
	if cfg.Start.IsZero() {
		cfg.Start = w.ScanTime
	}
	cfg = cfg.withDefaults()
	clk := simclock.NewManual(cfg.Start)
	srv := acme.NewServer(w.CAs.MustLookup(CAName), caDomain, w.DNS, w.Net, clk)
	srv.EnforceKeyReuse = true
	srv.Limits = cfg.Limits
	w.Net.Handle(APIAddr, srv.Handle)

	f := &Fleet{
		Cfg:        cfg,
		Estate:     w,
		Server:     srv,
		Clock:      clk,
		byName:     make(map[string]*hostState),
		nextDomain: make(map[string]time.Time),
		mirror:     limiter{lim: cfg.Limits},
	}
	f.Client = &acme.Client{
		Server:     APIAddr,
		ServerName: "acme-v02.api.letsencrypt.org",
		Net:        w.Net,
		Vantage:    "fleet",
		Provision: func(hostname, token string) error {
			if !f.Estate.SetChallenge(hostname, token) {
				return fmt.Errorf("acmefleet: %s unknown to estate", hostname)
			}
			return nil
		},
	}
	for _, e := range Enroll(set) {
		f.enroll(e.Hostname, e.Reason)
	}
	return f
}

// enroll registers one host, due immediately.
func (f *Fleet) enroll(hostname string, reason recommend.Rule) {
	if _, dup := f.byName[hostname]; dup {
		return
	}
	h := &hostState{
		hostname: hostname,
		reason:   reason,
		key:      hostKey(f.Cfg.Seed, hostname),
		due:      f.Cfg.Start,
	}
	f.hosts = append(f.hosts, h)
	f.byName[hostname] = h
	heap.Push(&f.queue, h)
}

// Enrollee is one host the scan marked for automated remediation.
type Enrollee struct {
	Hostname string
	Reason   recommend.Rule
}

// Enroll selects the fleet's population from a scan: the hosts the §8
// checklist marks AdoptHTTPS (no https at all) or FixCertificate (https
// is broken) — the two classes a certificate deployment fixes. Sorted by
// hostname.
func Enroll(set *resultset.Set) []Enrollee {
	findings := recommend.Evaluate(set, nil, nil)
	seen := make(map[string]bool)
	var out []Enrollee
	for _, fd := range findings {
		if fd.Rule != recommend.AdoptHTTPS && fd.Rule != recommend.FixCertificate {
			continue
		}
		if seen[fd.Hostname] {
			continue
		}
		seen[fd.Hostname] = true
		out = append(out, Enrollee{Hostname: fd.Hostname, Reason: fd.Rule})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hostname < out[j].Hostname })
	return out
}

// hostKey derives the host's account key deterministically from the seed:
// no RNG is shared across goroutines and re-runs mint identical keys.
func hostKey(seed int64, hostname string) cert.PublicKey {
	var id cert.KeyID
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(hostname))
	a := h.Sum64()
	h.Write([]byte("fleet-key"))
	b := h.Sum64()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
		id[8+i] = byte(b >> (8 * i))
	}
	return cert.PublicKey{Type: cert.KeyRSA, Bits: 2048, ID: id}
}

// Run executes the campaign: one scheduler pass per tick until the
// horizon. Returns the campaign report. Respects ctx cancellation at
// tick boundaries.
func (f *Fleet) Run(ctx context.Context) *Report {
	rep := &Report{Enrolled: len(f.hosts)}
	ticks := int(f.Cfg.Horizon / f.Cfg.Tick)
	for i := 0; i <= ticks && ctx.Err() == nil; i++ {
		// Nominal tick time: never a live clock read, so snapshots are
		// independent of in-tick latency bookkeeping.
		now := f.Cfg.Start.Add(time.Duration(i) * f.Cfg.Tick)
		f.Clock.SetTime(now)

		due := f.popDue(now)
		batch := due[:0]
		for _, h := range due {
			// Client-side rate-limit pacing: a deferred host burns no
			// attempt and no server-side order — it just moves to the
			// window's next free slot.
			if next, ok := f.admit(acme.RegisteredDomain(h.hostname), now); !ok {
				h.due = next
				heap.Push(&f.queue, h)
				continue
			}
			batch = append(batch, h)
		}
		outs := f.dispatch(ctx, batch)
		// Barrier: outcomes apply in admitted order, making every state
		// transition — and therefore every snapshot — independent of
		// worker interleaving.
		for k, h := range batch {
			f.apply(h, outs[k], now)
		}
		rep.Snapshots = append(rep.Snapshots, f.snapshot(i, now))
	}
	for _, h := range f.hosts {
		rep.Hosts = append(rep.Hosts, HostStatus{
			Hostname: h.hostname,
			Reason:   h.reason,
			State:    h.state,
			Class:    h.class,
			Attempts: h.attempts,
			Renewals: h.renewals,
			Probes:   h.probes,
			Terminal: h.terminal,
		})
	}
	return rep
}

// popDue removes every host due at or before now, in (due, hostname)
// order.
func (f *Fleet) popDue(now time.Time) []*hostState {
	var out []*hostState
	for f.queue.Len() > 0 && !f.queue[0].due.After(now) {
		out = append(out, heap.Pop(&f.queue).(*hostState))
	}
	return out
}

// admit merges the client-side limit mirror with horizons learned from
// 429s. Returns (nextFree, false) when the order should wait.
func (f *Fleet) admit(domain string, now time.Time) (time.Time, bool) {
	if now.Before(f.nextGlobal) {
		return f.nextGlobal, false
	}
	if nd, ok := f.nextDomain[domain]; ok {
		if now.Before(nd) {
			return nd, false
		}
		delete(f.nextDomain, domain)
	}
	return f.mirror.admit(domain, now)
}

// outcome is one order attempt's result.
type outcome struct {
	chain []*cert.Certificate
	err   error
}

// dispatch runs the admitted batch across Workers goroutines and waits
// for all of them. Each host's network traffic is its own; the shared
// structures (ACME server, estate challenge table) are internally
// synchronized; and nothing read from them feeds back into fleet state
// except through apply, which runs after the barrier in batch order.
func (f *Fleet) dispatch(ctx context.Context, batch []*hostState) []outcome {
	outs := make([]outcome, len(batch))
	if len(batch) == 0 {
		return outs
	}
	workers := f.Cfg.Workers
	if workers > len(batch) {
		workers = len(batch)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				outs[k] = f.attempt(ctx, batch[k])
			}
		}()
	}
	for k := range batch {
		idx <- k
	}
	close(idx)
	wg.Wait()
	return outs
}

// attempt drives one complete order for the host. Challenge tokens are
// withdrawn whatever the outcome — stale responders must not leak into
// later scans.
func (f *Fleet) attempt(ctx context.Context, h *hostState) outcome {
	defer f.Estate.ClearChallenge(h.hostname)
	chain, err := f.Client.Obtain(ctx, []string{h.hostname}, h.key)
	return outcome{chain: chain, err: err}
}

// apply advances one host's state machine from an order outcome at tick
// time now. Runs sequentially, in admitted order.
func (f *Fleet) apply(h *hostState, o outcome, now time.Time) {
	h.attempts++
	if o.err == nil {
		h.state = FleetRenewed
		h.class = ErrNone
		h.fails = 0
		h.probes = 0
		h.renewals++
		h.expiry = o.chain[0].NotAfter
		// Zero-downtime deploy happens here, on the scheduler goroutine:
		// handler swaps stay in a deterministic order.
		f.Estate.RotateCert(h.hostname, o.chain)
		h.due = h.expiry.Add(-f.Cfg.RenewWindow)
		if min := now.Add(f.Cfg.Tick); h.due.Before(min) {
			h.due = min // very short lifetimes still wait a tick
		}
		heap.Push(&f.queue, h)
		return
	}

	cls := Classify(o.err)
	h.class = cls
	f.errTotals[cls]++
	switch {
	case cls.Terminal():
		// CAA or key-reuse refusals: no number of retries changes DNS
		// policy or key ownership. Classified and done.
		h.state = FleetDenied
		h.terminal = true

	case cls == ErrRateLimited:
		// Not the host's fault: no failure-budget charge. Learn the
		// server's horizon and reschedule exactly there.
		retry := now.Add(f.Cfg.Tick)
		var rl *acme.RateLimitError
		if errors.As(o.err, &rl) && !rl.RetryAfter.IsZero() {
			if rl.RetryAfter.After(retry) {
				retry = rl.RetryAfter
			}
			if rl.Domain != "" {
				f.nextDomain[rl.Domain] = rl.RetryAfter
			} else if rl.Scope == "new-orders" || rl.Scope == "" {
				f.nextGlobal = rl.RetryAfter
			}
		}
		h.due = retry
		heap.Push(&f.queue, h)

	case h.state == FleetParked:
		// A failed probation probe re-opens the breaker immediately —
		// the scanner's half-open shape on the fleet timescale.
		if h.probes >= f.Cfg.MaxProbes {
			h.terminal = true // probation exhausted: parked for good
			return
		}
		h.probes++
		h.due = now.Add(f.Cfg.Probation)
		heap.Push(&f.queue, h)

	default:
		h.fails++
		if h.fails >= f.Cfg.FailureBudget {
			// Budget exhausted: park and schedule the first probe.
			h.state = FleetParked
			if f.Cfg.MaxProbes <= 0 {
				h.terminal = true
				return
			}
			h.probes = 1
			h.due = now.Add(f.Cfg.Probation)
			heap.Push(&f.queue, h)
			return
		}
		h.due = now.Add(f.backoff(h.hostname, h.fails-1))
		heap.Push(&f.queue, h)
	}
}

// backoff reuses the scanner's retry shape on the fleet's timescale:
// exponential doubling from BackoffBase capped at BackoffMax, scaled by a
// deterministic jitter in [0.5, 1.5) hashed from seed, attempt and
// hostname — decorrelated across hosts with no shared RNG.
func (f *Fleet) backoff(hostname string, attempt int) time.Duration {
	base := f.Cfg.BackoffBase
	if base <= 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	if f.Cfg.BackoffMax > 0 && d > f.Cfg.BackoffMax {
		d = f.Cfg.BackoffMax
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(f.Cfg.Seed >> (8 * i))
		buf[8+i] = byte(int64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(hostname))
	frac := float64(h.Sum64()>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + frac))
}

// limiter mirrors acme.RateLimits client-side: the fleet admits at most
// the server's capacity per window, in due order, so a correctly
// configured campaign never earns a 429. Decisions depend only on counts
// of identically timestamped grants, never on worker interleaving.
type limiter struct {
	lim    acme.RateLimits
	global []time.Time
	domain map[string][]time.Time
}

func (l *limiter) admit(domain string, now time.Time) (time.Time, bool) {
	if l.lim.Global > 0 && l.lim.GlobalWindow > 0 {
		l.global = prune(l.global, now.Add(-l.lim.GlobalWindow))
		if len(l.global) >= l.lim.Global {
			return l.global[0].Add(l.lim.GlobalWindow), false
		}
	}
	if l.lim.PerDomain > 0 && l.lim.PerDomainWindow > 0 {
		if l.domain == nil {
			l.domain = make(map[string][]time.Time)
		}
		l.domain[domain] = prune(l.domain[domain], now.Add(-l.lim.PerDomainWindow))
		if len(l.domain[domain]) >= l.lim.PerDomain {
			return l.domain[domain][0].Add(l.lim.PerDomainWindow), false
		}
		l.domain[domain] = append(l.domain[domain], now)
	}
	if l.lim.Global > 0 && l.lim.GlobalWindow > 0 {
		l.global = append(l.global, now)
	}
	return time.Time{}, true
}

func prune(grants []time.Time, floor time.Time) []time.Time {
	i := 0
	for i < len(grants) && !grants[i].After(floor) {
		i++
	}
	if i == 0 {
		return grants
	}
	return append(grants[:0], grants[i:]...)
}

// dueHeap orders hosts by (due, hostname): the renewal priority queue.
type dueHeap []*hostState

func (q dueHeap) Len() int { return len(q) }
func (q dueHeap) Less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].hostname < q[j].hostname
}
func (q dueHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *dueHeap) Push(x any)   { *q = append(*q, x.(*hostState)) }
func (q *dueHeap) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return h
}
