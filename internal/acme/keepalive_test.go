package acme_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/acme"
	"repro/internal/cert"
	"repro/internal/httpsim"
	"repro/internal/simnet"
)

// dialCounter counts the client's API dials.
type dialCounter struct {
	acme.Dialer
	n atomic.Int64
}

func (d *dialCounter) Dial(ctx context.Context, ep netip.AddrPort) (net.Conn, error) {
	d.n.Add(1)
	return d.Dialer.Dial(ctx, ep)
}

func countDials(h *harness) *dialCounter {
	d := &dialCounter{Dialer: h.client.Net}
	h.client.Net = d
	return d
}

// TestServerKeepAlive: Handle answers request after request on one
// connection without claiming Connection: close, and a request that
// carries Connection: close gets it echoed and the connection closed.
func TestServerKeepAlive(t *testing.T) {
	h := newHarness(t)
	conn, err := h.net.Dial(context.Background(), acmeAPI)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		resp, err := httpsim.Post(conn, br, "acme", "/acme/finalize", "application/json", []byte(`{"order_id":"order-999999"}`))
		if err != nil {
			t.Fatalf("request %d on the kept-alive connection: %v", i, err)
		}
		if resp.StatusCode != 404 || resp.Close {
			t.Fatalf("request %d: status %d close=%v, want 404 on an open connection", i, resp.StatusCode, resp.Close)
		}
	}
	last := httpsim.Request{Method: "POST", Host: "acme", Path: "/acme/finalize", Body: []byte(`{}`), Close: true}
	if err := last.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpsim.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Close {
		t.Error("the answer to a Connection: close request does not announce the close")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("read after the close = %v, want EOF", err)
	}
}

// TestClientReusesConnection: consecutive orders share one API
// connection, and a chain parsed from one response survives the
// exchanges that follow on the same connection.
func TestClientReusesConnection(t *testing.T) {
	h := newHarness(t)
	dials := countDials(h)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	h.addSite(t, "tax.gov.br", "190.10.0.2")
	first, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048))
	if err != nil {
		t.Fatal(err)
	}
	encs := make([][]byte, len(first))
	fps := make([][32]byte, len(first))
	for i, c := range first {
		encs[i] = bytes.Clone(c.Encode())
		fps[i] = c.Fingerprint()
	}
	if _, err := h.client.Obtain(context.Background(), []string{"tax.gov.br"}, h.key(2048)); err != nil {
		t.Fatal(err)
	}
	if n := dials.n.Load(); n != 1 {
		t.Errorf("two orders took %d API dials, want 1", n)
	}
	for i, c := range first {
		if !bytes.Equal(c.Encode(), encs[i]) || c.Fingerprint() != fps[i] {
			t.Fatalf("certificate %d of the first chain changed after the connection was reused", i)
		}
	}
	h.client.CloseIdle()
	if _, err := h.client.Obtain(context.Background(), []string{"tax.gov.br"}, h.key(2048)); err != nil {
		t.Fatal(err)
	}
	if n := dials.n.Load(); n != 2 {
		t.Errorf("after CloseIdle: %d API dials, want 2", n)
	}
}

// closingFront answers each API connection's first request through the
// real CA and then closes the connection. With announce the answer says
// Connection: close; without it the close comes unannounced, and each
// close is reported on closed once it has happened.
func closingFront(h *harness, announce bool, closed chan<- struct{}) {
	h.net.Handle(acmeAPI, func(conn net.Conn) {
		defer func() {
			conn.Close()
			if closed != nil {
				closed <- struct{}{}
			}
		}()
		req, err := httpsim.ReadRequestConn(conn)
		if err != nil {
			return
		}
		c, s := simnet.Pipe(simnet.Addr{AP: netip.MustParseAddrPort("10.9.0.1:1")}, simnet.Addr{AP: acmeAPI})
		go h.server.Handle(s)
		defer c.Close()
		resp, err := httpsim.Post(c, bufio.NewReader(c), req.Host, req.Path, req.ContentType, req.Body)
		if err != nil {
			return
		}
		httpsim.WriteResponse(conn, resp.StatusCode, httpsim.Header{ContentType: resp.ContentType, Close: announce}, resp.Body)
	})
}

// TestClientRedialsAfterClose: a response announcing Connection: close
// retires its connection, so every API request of an order dials anew.
func TestClientRedialsAfterClose(t *testing.T) {
	h := newHarness(t)
	dials := countDials(h)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	closingFront(h, true, nil)
	for i := 0; i < 2; i++ {
		if _, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048)); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.n.Load(); n != 4 {
		t.Errorf("two orders behind a closing front took %d API dials, want 4", n)
	}
}

// TestClientResendsAfterIdleClose: a CA that closes each connection after
// its response without announcing it leaves the client an idle connection
// it can no longer write on. The request never left, so the client sends
// it again on a fresh dial and every order succeeds.
func TestClientResendsAfterIdleClose(t *testing.T) {
	h := newHarness(t)
	dials := countDials(h)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	closed := make(chan struct{}, 4)
	closingFront(h, false, closed)
	// Waiting for each close before the next request makes every request
	// after the first meet an idle connection the CA already closed.
	h.client.Provision = func(hostname, token string) error {
		<-closed
		return h.provision(hostname, token)
	}
	for i := 0; i < 2; i++ {
		if _, err := h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048)); err != nil {
			t.Fatalf("order %d behind a CA that closes idle connections: %v", i, err)
		}
		<-closed
	}
	if n := dials.n.Load(); n != 4 {
		t.Errorf("two orders took %d API dials, want 4 (one per request)", n)
	}
}

// TestClientRedialsAfterTransportError: a kept-alive connection that
// breaks while the client reads the response fails the request on it,
// because the CA may have acted on it, and is discarded; the next
// request dials a fresh one.
func TestClientRedialsAfterTransportError(t *testing.T) {
	h := newHarness(t)
	dials := countDials(h)
	h.addSite(t, "portal.gov.br", "190.10.0.1")
	var mu sync.Mutex
	var clientEnds []net.Conn
	h.client.Net = dialFunc(func(ctx context.Context, ep netip.AddrPort) (net.Conn, error) {
		conn, err := dials.Dial(ctx, ep)
		mu.Lock()
		clientEnds = append(clientEnds, conn)
		mu.Unlock()
		return conn, err
	})
	obtain := func() ([]*cert.Certificate, error) {
		return h.client.Obtain(context.Background(), []string{"portal.gov.br"}, h.key(2048))
	}
	if _, err := obtain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clientEnds[0].(*simnet.Conn).ResetInbound() // requests still go out; answers are lost
	mu.Unlock()
	if _, err := obtain(); err == nil {
		t.Fatal("an order whose response was lost succeeded")
	}
	if _, err := obtain(); err != nil {
		t.Fatalf("the order after a transport error: %v", err)
	}
	if n := dials.n.Load(); n != 2 {
		t.Errorf("%d API dials, want 2 (one before the break, one after)", n)
	}
}

// dialFunc adapts a function to acme.Dialer.
type dialFunc func(ctx context.Context, ep netip.AddrPort) (net.Conn, error)

func (f dialFunc) Dial(ctx context.Context, ep netip.AddrPort) (net.Conn, error) {
	return f(ctx, ep)
}
