package tlssim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cert"
)

// Quirk selects a server misbehaviour observed in the wild and reflected in
// Table 2's exception rows.
type Quirk int

// Server misbehaviours.
const (
	// QuirkNone completes the handshake normally.
	QuirkNone Quirk = iota
	// QuirkSSLv2Only insists on SSLv2 regardless of the client's offer,
	// producing the "unsupported SSL protocol" failure.
	QuirkSSLv2Only
	// QuirkWrongVersionNumber frames the ServerHello under a garbage
	// record version ("wrong ssl version number").
	QuirkWrongVersionNumber
	// QuirkInternalErrorAlert aborts with a TLSv1 internal_error alert.
	QuirkInternalErrorAlert
	// QuirkHandshakeFailureAlert aborts with an SSLv3 handshake_failure
	// alert.
	QuirkHandshakeFailureAlert
	// QuirkProtocolVersionAlert aborts with a TLSv1 protocol_version alert.
	QuirkProtocolVersionAlert
	// QuirkTruncateHandshake sends the ServerHello and then tears the
	// connection down, so the client sees a truncated handshake (EOF where
	// the Certificate message should be) — the response-truncation fault
	// model at the TLS layer.
	QuirkTruncateHandshake
)

// ErrHandshakeTruncated marks a handshake the server deliberately cut
// short (QuirkTruncateHandshake).
var ErrHandshakeTruncated = fmt.Errorf("tlssim: handshake truncated by server")

// ServerConfig configures a simulated TLS server. A config whose Chain is
// fixed may be shared across handshakes; the encoded Certificate message is
// built once on first use.
type ServerConfig struct {
	// Chain is served to clients, leaf first.
	Chain []*cert.Certificate
	// MinVersion and MaxVersion bound the versions the server accepts.
	MinVersion, MaxVersion Version
	// Quirk selects a misbehaviour; QuirkNone for a healthy server.
	Quirk Quirk

	// certMsgOnce lazily caches the encoded Certificate handshake message
	// for Chain, so long-lived servers stop re-serializing it per dial.
	certMsgOnce sync.Once
	certMsg     []byte
}

// certMessage returns the Certificate handshake message for cfg.Chain,
// encoding it on first call.
func (cfg *ServerConfig) certMessage() []byte {
	cfg.certMsgOnce.Do(func() {
		cfg.certMsg = append([]byte{msgCertificate}, cert.EncodeChain(cfg.Chain)...)
	})
	return cfg.certMsg
}

// ClientConfig configures the scanning client.
type ClientConfig struct {
	// MinVersion and MaxVersion bound acceptable protocol versions. The
	// study's scanner accepts SSLv3 through TLS 1.3, so SSLv2-only servers
	// fail with ErrUnsupportedProtocol.
	MinVersion, MaxVersion Version
	// ServerName is the SNI value, also used for hostname verification by
	// the caller.
	ServerName string
	// ChainCache, when non-nil, deduplicates parsed certificate chains
	// across handshakes that present the same payload (the scanner shares
	// one cache across all probes).
	ChainCache *cert.ChainCache
}

// ConnectionState describes a completed handshake.
type ConnectionState struct {
	// Version is the negotiated protocol version.
	Version Version
	// Chain is the certificate chain the server presented, leaf first.
	Chain []*cert.Certificate
	// ServerName echoes the SNI sent by the client.
	ServerName string
}

// Conn is a handshaken connection carrying application data records.
// It implements net.Conn.
type Conn struct {
	raw      net.Conn
	rec      recordReader
	state    ConnectionState
	readRest []byte // unread application data, aliasing rec's buffers
}

// newConn wraps raw before the handshake, whose records it reads.
func newConn(raw net.Conn) *Conn {
	c := &Conn{raw: raw}
	c.rec.r = raw
	return c
}

// ConnectionState returns the negotiated parameters.
func (c *Conn) ConnectionState() ConnectionState { return c.state }

// Read implements net.Conn, delivering application-data payload bytes.
// An application-data record that fits in p is read straight into it.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.readRest) == 0 {
		typ, _, n, err := c.rec.header()
		if err != nil {
			return 0, err
		}
		if typ == recordAppData && n <= len(p) {
			if _, err := io.ReadFull(c.raw, p[:n]); err != nil {
				return 0, err
			}
			if n > 0 {
				return n, nil
			}
			continue
		}
		payload, err := c.rec.payload(n)
		if err != nil {
			return 0, err
		}
		switch typ {
		case recordAppData:
			c.readRest = payload
		case recordAlert:
			if len(payload) >= 2 {
				return 0, AlertError{ProtocolVersion: c.state.Version, Description: payload[1]}
			}
			return 0, ErrHandshakeState
		default:
			return 0, ErrHandshakeState
		}
	}
	n := copy(p, c.readRest)
	c.readRest = c.readRest[n:]
	return n, nil
}

// Write implements net.Conn, framing p as application data.
func (c *Conn) Write(p []byte) (int, error) {
	const chunk = 16 * 1024
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > chunk {
			n = chunk
		}
		if err := writeRecord(c.raw, recordAppData, c.state.Version, p[:n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// ClientHandshake performs the client side of the handshake over raw.
// On success it returns a connection ready for application data.
func ClientHandshake(raw net.Conn, cfg *ClientConfig) (*Conn, error) {
	hello := clientHello{MinVersion: cfg.MinVersion, MaxVersion: cfg.MaxVersion, ServerName: cfg.ServerName}
	if err := writeRecord(raw, recordHandshake, cfg.MaxVersion, hello.marshal()); err != nil {
		return nil, fmt.Errorf("tlssim: sending ClientHello: %w", err)
	}
	c := newConn(raw)

	// ServerHello.
	typ, recVer, payload, err := c.rec.next()
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading ServerHello: %w", err)
	}
	if !knownVersion(recVer) {
		return nil, ErrWrongVersionNumber
	}
	if typ == recordAlert {
		if len(payload) >= 2 {
			return nil, AlertError{ProtocolVersion: recVer, Description: payload[1]}
		}
		return nil, ErrHandshakeState
	}
	if typ != recordHandshake {
		return nil, ErrHandshakeState
	}
	sh, err := parseServerHello(payload)
	if err != nil {
		return nil, err
	}
	if sh.Version < cfg.MinVersion || sh.Version > cfg.MaxVersion {
		return nil, ErrUnsupportedProtocol
	}

	// Certificate. The payload aliases the record buffer the connection
	// reuses, while a parsed chain keeps slices of the bytes it parsed: the
	// cache copies on a miss, and the uncached parse gets its own copy.
	typ, _, payload, err = c.rec.next()
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading Certificate: %w", err)
	}
	if typ != recordHandshake || len(payload) < 1 || payload[0] != msgCertificate {
		return nil, ErrHandshakeState
	}
	var chain []*cert.Certificate
	if cfg.ChainCache != nil {
		chain, err = cfg.ChainCache.Parse(payload[1:])
	} else {
		chain, err = cert.ParseChain(bytes.Clone(payload[1:]))
	}
	if err != nil {
		return nil, fmt.Errorf("tlssim: parsing certificate chain: %w", err)
	}

	// Finished.
	typ, _, payload, err = c.rec.next()
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading Finished: %w", err)
	}
	if typ != recordHandshake || len(payload) < 1 || payload[0] != msgFinished {
		return nil, ErrHandshakeState
	}

	c.state = ConnectionState{
		Version:    sh.Version,
		Chain:      chain,
		ServerName: cfg.ServerName,
	}
	return c, nil
}

// ServerHandshake performs the server side of the handshake over raw,
// applying the configured quirk.
func ServerHandshake(raw net.Conn, cfg *ServerConfig) (*Conn, error) {
	c := newConn(raw)
	typ, _, payload, err := c.rec.next()
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading ClientHello: %w", err)
	}
	if typ != recordHandshake {
		return nil, ErrHandshakeState
	}
	ch, err := parseClientHello(payload)
	if err != nil {
		return nil, err
	}

	switch cfg.Quirk {
	case QuirkInternalErrorAlert:
		writeRecord(raw, recordAlert, TLS1_0, []byte{2, AlertInternalError})
		return nil, AlertError{ProtocolVersion: TLS1_0, Description: AlertInternalError}
	case QuirkHandshakeFailureAlert:
		writeRecord(raw, recordAlert, SSLv3, []byte{2, AlertHandshakeFailure})
		return nil, AlertError{ProtocolVersion: SSLv3, Description: AlertHandshakeFailure}
	case QuirkProtocolVersionAlert:
		writeRecord(raw, recordAlert, TLS1_0, []byte{2, AlertProtocolVersion})
		return nil, AlertError{ProtocolVersion: TLS1_0, Description: AlertProtocolVersion}
	default:
		// The non-alert quirks (none, SSLv2-only, wrong version number,
		// truncation) shape the ServerHello exchange below.
	}

	version := negotiate(ch, cfg)
	hello := serverHello{Version: version}.marshal()
	switch cfg.Quirk {
	case QuirkWrongVersionNumber:
		// The client will abort after the malformed record.
		if err := writeRecord(raw, recordHandshake, Version(0x4a4a), hello); err != nil {
			return nil, err
		}
		return nil, ErrWrongVersionNumber
	case QuirkSSLv2Only:
		// The client rejects the SSLv2 selection; nothing more to send.
		if err := writeRecord(raw, recordHandshake, version, hello); err != nil {
			return nil, err
		}
		return nil, ErrUnsupportedProtocol
	case QuirkTruncateHandshake:
		// Tear the connection down where the Certificate should follow.
		if err := writeRecord(raw, recordHandshake, version, hello); err != nil {
			return nil, err
		}
		raw.Close()
		return nil, ErrHandshakeTruncated
	default:
		// QuirkNone; the alert quirks returned above.
	}

	// A healthy server sends ServerHello, Certificate and Finished as one
	// flight in a single write.
	if err := writeRecords(raw, recordHandshake, version, hello, cfg.certMessage(), finishedMsg); err != nil {
		return nil, err
	}
	c.state = ConnectionState{
		Version:    version,
		Chain:      cfg.Chain,
		ServerName: ch.ServerName,
	}
	return c, nil
}

// negotiate picks the protocol version the server answers with.
func negotiate(ch clientHello, cfg *ServerConfig) Version {
	if cfg.Quirk == QuirkSSLv2Only {
		return SSLv2
	}
	v := cfg.MaxVersion
	if ch.MaxVersion < v {
		v = ch.MaxVersion
	}
	if v < cfg.MinVersion {
		// No overlap: the server still answers with its minimum, which the
		// client will reject as unsupported.
		v = cfg.MinVersion
	}
	return v
}

// DefaultClientConfig returns the scanner's client settings: SSLv3 through
// TLS 1.3, mirroring the permissive probing posture of the study's scans.
func DefaultClientConfig(serverName string) *ClientConfig {
	return &ClientConfig{
		MinVersion: SSLv3,
		MaxVersion: TLS1_3,
		ServerName: serverName,
	}
}
