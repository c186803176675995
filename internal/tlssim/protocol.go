// Package tlssim implements the TLS-shaped handshake protocol the scanner
// speaks with simulated servers: a record layer, ClientHello/ServerHello
// version negotiation (SSLv2 through TLS 1.3), certificate-chain delivery,
// alerts, and application-data framing. The failure modes reproduce the
// exception taxonomy of Table 2 — unsupported SSL protocol, wrong SSL
// version number, and the SSLv3/TLSv1 alert families.
//
// The wire format mirrors TLS's record structure but is not interoperable
// with real TLS; interoperability is not needed because both endpoints live
// in the simulated network.
package tlssim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Version is a protocol version in TLS wire numbering.
type Version uint16

// Protocol versions, oldest first.
const (
	SSLv2  Version = 0x0002
	SSLv3  Version = 0x0300
	TLS1_0 Version = 0x0301
	TLS1_1 Version = 0x0302
	TLS1_2 Version = 0x0303
	TLS1_3 Version = 0x0304
)

// String returns the conventional protocol name.
func (v Version) String() string {
	switch v {
	case SSLv2:
		return "SSLv2"
	case SSLv3:
		return "SSLv3"
	case TLS1_0:
		return "TLSv1.0"
	case TLS1_1:
		return "TLSv1.1"
	case TLS1_2:
		return "TLSv1.2"
	case TLS1_3:
		return "TLSv1.3"
	default:
		return fmt.Sprintf("Version(%#04x)", uint16(v))
	}
}

// Record types.
const (
	recordAlert     uint8 = 21
	recordHandshake uint8 = 22
	recordAppData   uint8 = 23
)

// Handshake message types.
const (
	msgClientHello uint8 = 1
	msgServerHello uint8 = 2
	msgCertificate uint8 = 11
	msgFinished    uint8 = 20
)

// Alert descriptions (TLS numbering).
const (
	AlertHandshakeFailure uint8 = 40
	AlertProtocolVersion  uint8 = 70
	AlertInternalError    uint8 = 80
)

// Handshake errors surfaced to the scanner.
var (
	// ErrUnsupportedProtocol is returned when the server insists on a
	// protocol older than the client supports (the "unsupported SSL
	// protocol" exception — 73.65% of Table 2's exceptions).
	ErrUnsupportedProtocol = errors.New("tlssim: unsupported ssl protocol")
	// ErrWrongVersionNumber is returned when a record carries a garbage
	// protocol version ("wrong ssl version number").
	ErrWrongVersionNumber = errors.New("tlssim: wrong ssl version number")
	// ErrRecordOversize guards the record length field.
	ErrRecordOversize = errors.New("tlssim: record exceeds maximum size")
	// ErrHandshakeState is returned when messages arrive out of order.
	ErrHandshakeState = errors.New("tlssim: unexpected handshake message")
)

// AlertError is a fatal alert received from the peer. Its rendering matches
// OpenSSL's error strings, which the paper's Table 2 rows are named after.
type AlertError struct {
	// ProtocolVersion is the record version the alert arrived under.
	ProtocolVersion Version
	// Description is the TLS alert description code.
	Description uint8
}

// Error implements the error interface.
func (e AlertError) Error() string {
	proto := "tlsv1"
	if e.ProtocolVersion == SSLv3 {
		proto = "sslv3"
	}
	switch e.Description {
	case AlertHandshakeFailure:
		return proto + " alert handshake failure"
	case AlertProtocolVersion:
		return proto + " alert protocol version"
	case AlertInternalError:
		return proto + " alert internal error"
	default:
		return fmt.Sprintf("%s alert %d", proto, e.Description)
	}
}

const maxRecordLen = 1 << 20

// recordBufPool recycles the framing buffers writeRecords serializes into.
// The buffer is handed to w.Write and returned to the pool immediately
// after, which is safe because Write implementations must not retain p
// (simnet copies into the pipe buffer before returning).
var recordBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// finishedMsg is the Finished handshake message.
var finishedMsg = []byte{msgFinished}

// writeRecord frames one record.
func writeRecord(w io.Writer, typ uint8, ver Version, payload []byte) error {
	return writeRecords(w, typ, ver, payload)
}

// writeRecords frames each payload as one record of the given type and
// version, and sends them all in a single write.
func writeRecords(w io.Writer, typ uint8, ver Version, payloads ...[]byte) error {
	for _, p := range payloads {
		if len(p) > maxRecordLen {
			return ErrRecordOversize
		}
	}
	bp := recordBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	for _, p := range payloads {
		b = append(b, typ, byte(ver>>8), byte(ver), byte(len(p)>>8), byte(len(p)))
		b = append(b, p...)
	}
	_, err := w.Write(b)
	*bp = b
	recordBufPool.Put(bp)
	return err
}

// smallRecordLen is the largest record a recordReader reads without its
// growable buffer: every handshake message but Certificate fits.
const smallRecordLen = 128

// recordReader reads records straight off the connection into buffers it
// reuses for the connection's lifetime. A simnet read is already an
// in-memory copy, so there is no read-ahead layer in between.
type recordReader struct {
	r     io.Reader
	hdr   [5]byte
	small [smallRecordLen]byte
	buf   []byte // grown on demand for records larger than small
}

// header reads one record header.
func (rr *recordReader) header() (typ uint8, ver Version, n int, err error) {
	if _, err = io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	return rr.hdr[0], Version(binary.BigEndian.Uint16(rr.hdr[1:3])), int(binary.BigEndian.Uint16(rr.hdr[3:5])), nil
}

// payload reads an n-byte record body into the reused buffers. The result
// aliases them and is valid only until the next read; callers copy what
// they keep.
func (rr *recordReader) payload(n int) ([]byte, error) {
	var p []byte
	switch {
	case n <= len(rr.small):
		p = rr.small[:n]
	case n <= cap(rr.buf):
		p = rr.buf[:n]
	default:
		rr.buf = make([]byte, n)
		p = rr.buf
	}
	if _, err := io.ReadFull(rr.r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// next reads one whole record; the payload follows payload's aliasing rule.
func (rr *recordReader) next() (typ uint8, ver Version, payload []byte, err error) {
	typ, ver, n, err := rr.header()
	if err != nil {
		return 0, 0, nil, err
	}
	if payload, err = rr.payload(n); err != nil {
		return 0, 0, nil, err
	}
	return typ, ver, payload, nil
}

// knownVersion reports whether v is a version this implementation can name.
func knownVersion(v Version) bool {
	switch v {
	case SSLv2, SSLv3, TLS1_0, TLS1_1, TLS1_2, TLS1_3:
		return true
	}
	return false
}

// clientHello is the client's opening message.
type clientHello struct {
	MinVersion Version
	MaxVersion Version
	ServerName string
}

func (h clientHello) marshal() []byte {
	b := make([]byte, 0, 7+len(h.ServerName))
	b = append(b, msgClientHello)
	b = binary.BigEndian.AppendUint16(b, uint16(h.MinVersion))
	b = binary.BigEndian.AppendUint16(b, uint16(h.MaxVersion))
	b = binary.BigEndian.AppendUint16(b, uint16(len(h.ServerName)))
	return append(b, h.ServerName...)
}

func parseClientHello(p []byte) (clientHello, error) {
	var h clientHello
	if len(p) < 7 || p[0] != msgClientHello {
		return h, ErrHandshakeState
	}
	h.MinVersion = Version(binary.BigEndian.Uint16(p[1:3]))
	h.MaxVersion = Version(binary.BigEndian.Uint16(p[3:5]))
	n := int(binary.BigEndian.Uint16(p[5:7]))
	if len(p) < 7+n {
		return h, io.ErrUnexpectedEOF
	}
	h.ServerName = string(p[7 : 7+n])
	return h, nil
}

// serverHello is the server's version selection.
type serverHello struct {
	Version Version
}

func (h serverHello) marshal() []byte {
	b := make([]byte, 0, 3)
	b = append(b, msgServerHello)
	return binary.BigEndian.AppendUint16(b, uint16(h.Version))
}

func parseServerHello(p []byte) (serverHello, error) {
	if len(p) < 3 || p[0] != msgServerHello {
		return serverHello{}, ErrHandshakeState
	}
	return serverHello{Version: Version(binary.BigEndian.Uint16(p[1:3]))}, nil
}
