package acmefleet

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acme"
	"repro/internal/world"
)

// apiProbe instruments one fleet's traffic: it counts the client's API
// dials and the CA's HTTP-01 validation dials, tracks which API
// connections the client has not yet closed, and wraps the CA's handler
// so a test can wait for every Server.Handle to return.
type apiProbe struct {
	net               acme.Dialer
	apiDials, vaDials atomic.Int64
	open              atomic.Int64
	serving           sync.WaitGroup
}

// watch installs a probe on f, which must not have run yet.
func watch(w *world.World, f *Fleet) *apiProbe {
	p := &apiProbe{net: f.Client.Net}
	f.Client.Net = p
	f.Server.Net = vaCounter{p}
	w.Net.Handle(APIAddr, func(conn net.Conn) {
		defer p.serving.Done()
		f.Server.Handle(conn)
	})
	return p
}

// Dial is the client's API dialer: a connection that comes up is tracked
// until the client closes it, and its handler until it returns.
func (p *apiProbe) Dial(ctx context.Context, from string, ep netip.AddrPort) (net.Conn, error) {
	p.apiDials.Add(1)
	p.serving.Add(1)
	conn, err := p.net.Dial(ctx, from, ep)
	if err != nil {
		p.serving.Done() // no connection, so no handler
		return nil, err
	}
	p.open.Add(1)
	return &trackedConn{Conn: conn, open: &p.open}, nil
}

// waitHandlers blocks until every API connection's Server.Handle has
// returned. The deadline only turns a hang into a failure.
func (p *apiProbe) waitHandlers(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a Server.Handle is still running after Run returned")
	}
}

// vaCounter is the CA's validation dialer.
type vaCounter struct{ p *apiProbe }

func (v vaCounter) Dial(ctx context.Context, from string, ep netip.AddrPort) (net.Conn, error) {
	v.p.vaDials.Add(1)
	return v.p.net.Dial(ctx, from, ep)
}

// trackedConn counts itself out of open on its first Close.
type trackedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// TestCampaignKeepsAPIConnectionsAlive: a clean campaign reaches the CA
// over at most one API connection per worker, while HTTP-01 validation
// still dials once per challenge.
func TestCampaignKeepsAPIConnectionsAlive(t *testing.T) {
	w, set := fixture(t, 41)
	f := New(w, set, quickConfig(41))
	p := watch(w, f)
	rep := f.Run(context.Background())
	if rep.Final().Renewed != rep.Enrolled {
		t.Fatalf("renewed %d of %d on a fault-free world", rep.Final().Renewed, rep.Enrolled)
	}
	if n := p.apiDials.Load(); n == 0 || n > int64(f.Cfg.Workers) {
		t.Errorf("%d API dials for %d workers", n, f.Cfg.Workers)
	}
	attempts := 0
	for _, h := range rep.Hosts {
		attempts += h.Attempts
	}
	if n := p.vaDials.Load(); n != int64(attempts) {
		t.Errorf("%d validation dials for %d single-host orders", n, attempts)
	}
}

// TestRunClosesAPIConnections: when Run returns, whether the campaign ran
// to its horizon or its ctx was cancelled mid-tick, the client holds no
// open API connection and every Server.Handle has returned.
func TestRunClosesAPIConnections(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cancelAt int64 // provision count that cancels the campaign; 0 never
	}{
		{"complete", 0},
		{"cancelled", 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, set := fixture(t, 41)
			f := New(w, set, quickConfig(41))
			p := watch(w, f)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAt > 0 {
				var provisions atomic.Int64
				provision := f.Client.Provision
				f.Client.Provision = func(hostname, token string) error {
					if provisions.Add(1) == tc.cancelAt {
						cancel()
					}
					return provision(hostname, token)
				}
			}
			rep := f.Run(ctx)
			full := int(f.Cfg.Horizon/f.Cfg.Tick) + 1
			if cut := len(rep.Snapshots) < full; cut != (tc.cancelAt > 0) {
				t.Fatalf("%d of %d ticks ran", len(rep.Snapshots), full)
			}
			if p.apiDials.Load() == 0 {
				t.Fatal("the campaign never reached the CA")
			}
			if n := p.open.Load(); n != 0 {
				t.Errorf("%d API connections still open after Run", n)
			}
			p.waitHandlers(t)
		})
	}
}
