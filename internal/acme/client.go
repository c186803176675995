package acme

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/cert"
	"repro/internal/httpsim"
)

// Client drives the certbot side of the flow: order, provision the http-01
// tokens on the web server, finalize, parse the chain.
type Client struct {
	// Server is the ACME API endpoint.
	Server netip.AddrPort
	// ServerName is the Host header for API requests.
	ServerName string
	// Net dials the API.
	Net Dialer
	// Vantage labels the client's network position.
	Vantage string
	// Provision publishes the challenge token at
	// http://<hostname>/.well-known/acme-challenge/<token> — typically by
	// installing content on the host's web server. It must return once the
	// token is servable.
	Provision func(hostname, token string) error
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
	var resp OrderResponse
	if err := c.post(ctx, "/acme/new-order", req, &resp); err != nil {
		return OrderResponse{}, err
	}
	return resp, nil
}

func (c *Client) finalize(ctx context.Context, orderID string) ([]*cert.Certificate, error) {
	var resp FinalizeResponse
	if err := c.post(ctx, "/acme/finalize", FinalizeRequest{OrderID: orderID}, &resp); err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(resp.Chain)
	if err != nil {
		return nil, fmt.Errorf("acme: decoding chain: %w", err)
	}
	return cert.ParseChain(raw)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	conn, err := c.Net.Dial(ctx, c.Vantage, c.Server)
	if err != nil {
		return fmt.Errorf("acme: dialing CA: %w", err)
	}
	defer conn.Close()
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := httpsim.Post(conn, c.ServerName, path, "application/json", body)
	if err != nil {
		return fmt.Errorf("acme: %s: %w", path, err)
	}
	if resp.StatusCode != 200 {
		return problemFromResponse(path, resp.StatusCode, resp.Body)
	}
	return json.Unmarshal(resp.Body, out)
}

// problemFromResponse rebuilds a typed error from a problem document, so
// server-side refusals keep their errors.Is identity across the wire.
func problemFromResponse(path string, status int, body []byte) error {
	var problem FinalizeResponse
	if json.Unmarshal(body, &problem) != nil || (problem.Error == "" && problem.Code == "") {
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
