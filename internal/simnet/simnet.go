// Package simnet is the in-memory Internet the study runs against: IP
// endpoints served by registered handlers, a dialer, per-endpoint fault
// injection (connection refused, reset, timeout) and a pluggable firewall
// modeling national censorship (§7.1.2). Connections implement net.Conn
// with deadlines, so protocol code written against real sockets runs
// unmodified.
//
// Waiting time is collapsed: a blackholed endpoint fails the dial with a
// timeout error immediately instead of consuming wall-clock time, which
// keeps full-world scans (135k+ hosts, 3 retries) fast while preserving the
// error classification the analysis depends on.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/simclock"
)

// Errors surfaced by the simulated network. They correspond to the
// exception rows of Table 2.
var (
	ErrConnRefused = errors.New("simnet: connection refused")
	ErrConnReset   = errors.New("simnet: connection reset by peer")
	ErrTimedOut    = errors.New("simnet: operation timed out")
	ErrConnClosed  = errors.New("simnet: connection closed")
	ErrFirewalled  = errors.New("simnet: blocked by national firewall")
)

// clientIP is the source address every dialed connection reports.
var clientIP = netip.MustParseAddr("10.0.0.1")

// ErrFirewallTimeout is what a censored dial fails with: it classifies as
// a timeout (on the wire, censorship is indistinguishable from packet
// loss, §7.1.2) while staying identifiable as a deterministic block via
// errors.Is(err, ErrFirewalled) — so a scanner can classify it once
// instead of burning its retry budget re-dialing a censored route.
var ErrFirewallTimeout = fmt.Errorf("%w: %w", ErrTimedOut, ErrFirewalled)

// Fault is a per-endpoint failure mode.
type Fault int

// Endpoint failure modes. The first four are permanent: every dial (or
// every use) fails the same way. The transient modes model the long tail
// of flaky hosts the paper's scanner survives by re-queuing (§4.2.3): they
// fail some dials and let others through, deterministically for a given
// network seed.
const (
	// FaultNone delivers connections normally.
	FaultNone Fault = iota
	// FaultRefuse rejects dials with ErrConnRefused.
	FaultRefuse
	// FaultTimeout blackholes dials; they fail with ErrTimedOut.
	FaultTimeout
	// FaultReset accepts the dial then resets the connection on first use.
	FaultReset
	// FaultFlaky fails the endpoint's first FailCount dials (with FailWith,
	// default ErrConnReset) and serves normally afterwards — a host that
	// recovers under the scanner's retry policy.
	FaultFlaky
	// FaultProb fails each dial independently with Probability, decided by
	// a deterministic per-(endpoint, dial-ordinal) hash of the network
	// seed, so runs with the same seed see the same failure sequence.
	FaultProb
	// FaultMidHandshake completes the TCP dial and lets the client send
	// (the ClientHello goes out) but every byte the server sends back is
	// replaced by a connection reset — an RST arriving mid-handshake.
	FaultMidHandshake
	// FaultTruncate completes the dial but cuts the server-to-client
	// stream after TruncateBytes bytes, then EOF — a truncated response.
	FaultTruncate
)

// Transient reports whether the mode can let later dials succeed. Dials
// to a transient endpoint then depend on its dial history, so one scan's
// result for it cannot stand in for a later scan's.
func (f Fault) Transient() bool { return f == FaultFlaky || f == FaultProb }

// FaultSpec is the full description of an endpoint failure mode. The zero
// value means "no fault". Legacy SetFault(ep, mode) is shorthand for
// SetFaultSpec(ep, FaultSpec{Mode: mode}).
type FaultSpec struct {
	// Mode selects the failure behaviour.
	Mode Fault
	// FailCount is how many initial dials FaultFlaky fails.
	FailCount int
	// Probability is FaultProb's per-dial failure chance in [0, 1].
	Probability float64
	// FailWith overrides the error FaultFlaky/FaultProb dials fail with;
	// nil means ErrConnReset.
	FailWith error
	// DialLatency is injected before the dial resolves (success or
	// failure), advancing the network's clock. Usable with any Mode,
	// including FaultNone, to model slow responders.
	DialLatency time.Duration
	// TruncateBytes is how many server-sent bytes FaultTruncate delivers
	// before the stream ends.
	TruncateBytes int
}

// isZero reports whether the spec configures nothing.
func (fs FaultSpec) isZero() bool { return fs.Mode == FaultNone && fs.DialLatency == 0 }

// FirewallFunc inspects a dial's destination and returns a non-nil error
// to block it.
type FirewallFunc func(to netip.AddrPort) error

// Addr is a net.Addr for simulated endpoints.
type Addr struct{ AP netip.AddrPort }

// Network returns "sim".
func (a Addr) Network() string { return "sim" }

// String returns the ip:port form.
func (a Addr) String() string { return a.AP.String() }

// Handler serves one accepted connection. The connection is closed by the
// handler (or abandoned; the peer then sees EOF when the handler returns).
type Handler func(conn net.Conn)

// Network is the simulated Internet.
type Network struct {
	mu       sync.RWMutex
	handlers map[netip.AddrPort]Handler
	faults   map[netip.AddrPort]FaultSpec
	dialSeq  map[netip.AddrPort]int64
	firewall FirewallFunc
	clock    simclock.Clock
	seed     int64
	nextPort uint16
	dials    int64
}

// New creates an empty network on a collapsing virtual clock (injected
// latency advances simulated time only).
func New() *Network {
	return NewSized(0)
}

// NewSized is New with a capacity hint for the endpoint tables. A
// full-scale world registers hundreds of thousands of handlers; sizing the
// maps up front avoids rehashing the tables a dozen times while it builds.
func NewSized(hint int) *Network {
	return &Network{
		handlers: make(map[netip.AddrPort]Handler, hint),
		faults:   make(map[netip.AddrPort]FaultSpec),
		dialSeq:  make(map[netip.AddrPort]int64),
		clock:    simclock.NewVirtual(time.Unix(0, 0)),
		nextPort: 40000,
	}
}

// SetClock installs the clock used for injected latency. Simulation wires
// a shared virtual clock; nil restores the default.
func (n *Network) SetClock(c simclock.Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c == nil {
		c = simclock.NewVirtual(time.Unix(0, 0))
	}
	n.clock = c
}

// SetSeed fixes the seed behind probabilistic faults; identical seeds give
// identical per-endpoint failure sequences.
func (n *Network) SetSeed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seed = seed
}

// Handle registers a handler for an endpoint. A handler consumes no
// goroutine until a connection arrives, which lets a simulated world host
// hundreds of thousands of endpoints cheaply. A nil handler removes the
// registration; dials to an endpoint without one are refused.
func (n *Network) Handle(ep netip.AddrPort, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h == nil {
		delete(n.handlers, ep)
		return
	}
	n.handlers[ep] = h
}

// SetFault installs a simple failure mode on an endpoint.
func (n *Network) SetFault(ep netip.AddrPort, f Fault) {
	n.SetFaultSpec(ep, FaultSpec{Mode: f})
}

// SetFaultSpec installs a full failure description on an endpoint; a zero
// spec removes any existing fault. Installing a spec resets the endpoint's
// dial ordinal, so FaultFlaky counts from the installation point.
func (n *Network) SetFaultSpec(ep netip.AddrPort, fs FaultSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.dialSeq, ep)
	if fs.isZero() {
		delete(n.faults, ep)
		return
	}
	n.faults[ep] = fs
}

// FaultAt reports the fault spec installed on an endpoint.
func (n *Network) FaultAt(ep netip.AddrPort) FaultSpec {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.faults[ep]
}

// SetFirewall installs the censorship hook; nil disables it.
func (n *Network) SetFirewall(f FirewallFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.firewall = f
}

// DialCount reports the number of Dial attempts observed (retry
// accounting in tests and benches).
func (n *Network) DialCount() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dials
}

// Dial connects to an endpoint. It honours the context, endpoint faults
// (permanent and transient), injected latency and the firewall.
func (n *Network) Dial(ctx context.Context, ep netip.AddrPort) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.dials++
	spec := n.faults[ep]
	seq := n.dialSeq[ep]
	if spec.Mode.Transient() {
		n.dialSeq[ep] = seq + 1
	}
	fw := n.firewall
	clock := n.clock
	seed := n.seed
	h := n.handlers[ep]
	n.mu.Unlock()

	if fw != nil {
		if err := fw(ep); err != nil {
			return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr{ep}, Err: err}
		}
	}
	if spec.DialLatency > 0 {
		if err := clock.Sleep(ctx, spec.DialLatency); err != nil {
			return nil, err
		}
	}
	dialErr := func(err error) (net.Conn, error) {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr{ep}, Err: err}
	}
	switch spec.Mode {
	case FaultRefuse:
		return dialErr(ErrConnRefused)
	case FaultTimeout:
		return dialErr(ErrTimedOut)
	case FaultFlaky:
		if seq < int64(spec.FailCount) {
			return dialErr(spec.failErr())
		}
	case FaultProb:
		if dialChance(seed, ep, seq) < spec.Probability {
			return dialErr(spec.failErr())
		}
	default:
		// FaultNone and the connection-stage faults (reset, mid-handshake,
		// truncate) do not interfere with the dial; they apply after the
		// pipe exists.
	}
	if h == nil {
		return dialErr(ErrConnRefused)
	}

	n.mu.Lock()
	clientPort := n.nextPort
	n.nextPort++
	if n.nextPort == 0 {
		n.nextPort = 40000
	}
	n.mu.Unlock()
	client, server := dialPipe(netip.AddrPortFrom(clientIP, clientPort), ep)

	switch spec.Mode {
	case FaultReset:
		// The TCP handshake completes but the connection dies on use; the
		// server side never sees it.
		client.Reset()
		return client, nil
	case FaultMidHandshake:
		// The client's outbound bytes reach the server, but everything the
		// server answers is replaced by a reset.
		client.ResetInbound()
	case FaultTruncate:
		client.TruncateInbound(spec.TruncateBytes)
	default:
		// FaultNone and the dial-stage faults (refuse, timeout, flaky,
		// probabilistic) were consumed before the pipe was built.
	}

	serveConn(h, server)
	return client, nil
}

// failErr picks the error a transient fault fails with.
func (fs FaultSpec) failErr() error {
	if fs.FailWith != nil {
		return fs.FailWith
	}
	return ErrConnReset
}

// dialChance derives a deterministic value in [0, 1) from the network
// seed, the endpoint and the dial ordinal, so probabilistic faults are
// reproducible regardless of goroutine scheduling.
func dialChance(seed int64, ep netip.AddrPort, seq int64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(seq >> (8 * i))
	}
	h.Write(buf[:])
	b, _ := ep.MarshalBinary()
	h.Write(b)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// IsTimeout reports whether err represents a timed-out operation.
func IsTimeout(err error) bool {
	return errors.Is(err, ErrTimedOut) || errors.Is(err, context.DeadlineExceeded)
}

// IsRefused reports whether err represents a refused connection.
func IsRefused(err error) bool { return errors.Is(err, ErrConnRefused) }

// IsReset reports whether err represents a reset connection.
func IsReset(err error) bool { return errors.Is(err, ErrConnReset) }
