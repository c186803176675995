package acme

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/httpsim"
)

// Client drives the certbot side of the flow: order, provision the http-01
// tokens on the web server, finalize, parse the chain. API requests travel
// on kept-alive connections: a call takes an idle one or dials, and hands
// it back after a clean exchange, so the client holds at most one idle
// connection per caller that ran concurrently. A Client must not be copied
// after first use.
type Client struct {
	// Server is the ACME API endpoint.
	Server netip.AddrPort
	// ServerName is the Host header for API requests.
	ServerName string
	// Net dials the API.
	Net Dialer
	// Provision publishes the challenge token at
	// http://<hostname>/.well-known/acme-challenge/<token> — typically by
	// installing content on the host's web server. It must return once the
	// token is servable.
	Provision func(hostname, token string) error

	mu   sync.Mutex
	idle []*apiConn
}

// apiConn is one kept-alive API connection with the reader that owns its
// inbound bytes.
type apiConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// Obtain runs the complete issuance flow for the hostnames using the key.
func (c *Client) Obtain(ctx context.Context, hostnames []string, key cert.PublicKey) ([]*cert.Certificate, error) {
	orderResp, err := c.newOrder(ctx, hostnames, key)
	if err != nil {
		return nil, err
	}
	// Provision in sorted hostname order: the hook's side effects (and any
	// failure it surfaces first) must not depend on map iteration.
	hosts := make([]string, 0, len(orderResp.Tokens))
	for host := range orderResp.Tokens {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		if c.Provision == nil {
			return nil, fmt.Errorf("acme: no Provision hook to publish token for %s", host)
		}
		if err := c.Provision(host, orderResp.Tokens[host]); err != nil {
			return nil, fmt.Errorf("acme: provisioning %s: %w", host, err)
		}
	}
	return c.finalize(ctx, orderResp.OrderID)
}

func (c *Client) newOrder(ctx context.Context, hostnames []string, key cert.PublicKey) (OrderResponse, error) {
	req := OrderRequest{
		Hostnames: hostnames,
		KeyType:   key.Type.String(),
		KeyBits:   key.Bits,
		KeyID:     key.ID.String(),
	}
	resp, err := c.post(ctx, "/acme/new-order", appendOrderRequest(nil, &req))
	if err != nil {
		return OrderResponse{}, err
	}
	return decodeOrderResponse(resp.Body)
}

func (c *Client) finalize(ctx context.Context, orderID string) ([]*cert.Certificate, error) {
	resp, err := c.post(ctx, "/acme/finalize", appendFinalizeRequest(nil, &FinalizeRequest{OrderID: orderID}))
	if err != nil {
		return nil, err
	}
	if resp.ContentType != ChainContentType {
		return nil, fmt.Errorf("acme: /acme/finalize: chain download typed %q", resp.ContentType)
	}
	// The parsed chain keeps slices of the bytes it is parsed from:
	// resp.Body is a fresh allocation per response, never a reused
	// connection buffer.
	return cert.ParseChain(resp.Body)
}

// post sends one API request on a kept-alive connection and returns a
// 200 response; any other status comes back as the typed problem error. A
// transport error or a Connection: close answer discards the connection;
// otherwise it goes back to the idle set for the next call. A write that
// fails on an idle connection means the CA closed it while it sat idle:
// the request never left, so it is sent once more on a fresh dial. A
// failure while reading the response fails the call, because the CA may
// have acted on the request.
func (c *Client) post(ctx context.Context, path string, body []byte) (*httpsim.Response, error) {
	req := httpsim.Request{Method: "POST", Host: c.ServerName, Path: path, ContentType: "application/json", Body: body}
	// A cancelled ctx fails the call even when an idle connection could
	// carry it, as the dial would.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("acme: dialing CA: %w", err)
	}
	ac := c.takeIdle()
	if ac != nil && req.Write(ac.conn) != nil {
		// Closed while idle: nothing was sent, so resend on a fresh dial.
		ac.conn.Close()
		ac = nil
	}
	if ac == nil {
		conn, err := c.Net.Dial(ctx, c.Server)
		if err != nil {
			return nil, fmt.Errorf("acme: dialing CA: %w", err)
		}
		ac = &apiConn{conn: conn, br: bufio.NewReader(conn)}
		if err := req.Write(ac.conn); err != nil {
			ac.conn.Close()
			return nil, fmt.Errorf("acme: %s: %w", path, err)
		}
	}
	resp, err := httpsim.ReadResponse(ac.br)
	if err != nil {
		ac.conn.Close()
		return nil, fmt.Errorf("acme: %s: %w", path, err)
	}
	if resp.Close || ac.br.Buffered() > 0 {
		// Announced close, or bytes past the response: the stream is no
		// longer known to be in step with the server.
		ac.conn.Close()
	} else {
		c.mu.Lock()
		c.idle = append(c.idle, ac)
		c.mu.Unlock()
	}
	if resp.StatusCode != 200 {
		return nil, problemFromResponse(path, resp.StatusCode, resp.Body)
	}
	return resp, nil
}

// takeIdle returns an idle API connection, or nil when there is none.
func (c *Client) takeIdle() *apiConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.idle)
	if n == 0 {
		return nil
	}
	ac := c.idle[n-1]
	c.idle[n-1] = nil
	c.idle = c.idle[:n-1]
	return ac
}

// CloseIdle closes every idle API connection; the server's handler for
// each sees the close and returns. Connections in use are unaffected.
func (c *Client) CloseIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, ac := range idle {
		ac.conn.Close()
	}
}

// problemFromResponse rebuilds a typed error from a problem document, so
// server-side refusals keep their errors.Is identity across the wire.
func problemFromResponse(path string, status int, body []byte) error {
	problem, err := decodeProblem(body)
	if err != nil || (problem.Error == "" && problem.Code == "") {
		return fmt.Errorf("acme: %s: status %d", path, status)
	}
	if problem.Code == "rateLimited" {
		retryAfter, err := time.Parse(time.RFC3339Nano, problem.RetryAfter)
		if err == nil {
			return &RateLimitError{RetryAfter: retryAfter, Detail: problem.Error}
		}
	}
	return &ProblemError{Status: status, Code: problem.Code, Detail: problem.Error}
}
