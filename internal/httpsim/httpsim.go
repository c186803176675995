// Package httpsim implements the minimal HTTP/1.1 dialect spoken between
// the study's scanner/crawler and the simulated web servers: request and
// response serialization, status codes, redirects (including the http→https
// upgrade the paper measures), HSTS headers, and HTML pages carrying the
// hyperlinks the crawler follows.
package httpsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

// Protocol limits.
const (
	maxHeaderLines = 100
	maxLineLen     = 8192
	maxBodyLen     = 4 << 20
)

// Parsing errors.
var (
	ErrMalformedRequest  = errors.New("httpsim: malformed request")
	ErrMalformedResponse = errors.New("httpsim: malformed response")
	ErrBodyTooLarge      = errors.New("httpsim: body exceeds limit")
)

// Request is a parsed HTTP request. The dialect keeps a fixed set of
// header fields; every other header line is validated and dropped.
type Request struct {
	Method string
	Path   string
	Host   string
	// ContentType is the Content-Type header ("" when absent).
	ContentType string
	// Close reports a Connection: close header: the client closes the
	// connection after this exchange.
	Close bool
	Body  []byte
}

// Response is a parsed HTTP response. Like Request, it keeps a fixed
// set of header fields.
type Response struct {
	StatusCode int
	// ContentType is the Content-Type header ("" when absent).
	ContentType string
	// Close reports a Connection: close header: the server closes the
	// connection after this response.
	Close bool
	Body  []byte

	location string
	hsts     bool
}

// HSTS reports whether the response carries a Strict-Transport-Security
// header (§8.2's HSTS preload recommendation).
func (r *Response) HSTS() bool { return r.hsts }

// Location returns the redirect target, if any.
func (r *Response) Location() string { return r.location }

// IsRedirect reports whether the status code denotes a redirect.
func (r *Response) IsRedirect() bool {
	return r.StatusCode == 301 || r.StatusCode == 302 || r.StatusCode == 307 || r.StatusCode == 308
}

// Header is the set of response header fields WriteResponse can send;
// the zero value sends none beyond Content-Length.
type Header struct {
	ContentType string
	Location    string
	// HSTS sends Strict-Transport-Security with the one-year,
	// preload-eligible policy every simulated https site uses.
	HSTS bool
	// Close sends Connection: close. A server sets it only when it closes
	// the connection after this response.
	Close bool
}

// hstsPolicy is the Strict-Transport-Security value Header.HSTS sends.
const hstsPolicy = "max-age=31536000; includeSubDomains; preload"

// bufPool recycles the serialization buffers Request.Write and
// WriteResponse build wire bytes in: the buffer is fully written to the
// connection before the call returns, so it holds no live state.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// WriteRequest sends a body-less request on a connection the client
// closes afterwards (Connection: close).
func WriteRequest(w io.Writer, method, host, path string) error {
	r := Request{Method: method, Host: host, Path: path, Close: true}
	return r.Write(w)
}

// Write sends the request. An empty Path sends "/"; Connection: close
// goes out only when r.Close is set, Content-Type only when r.ContentType
// is, and Content-Length only with a body.
func (r *Request) Write(w io.Writer) error {
	path := r.Path
	if path == "" {
		path = "/"
	}
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, r.Host...)
	b = append(b, "\r\nUser-Agent: govhttps-scanner/1.0\r\n"...)
	if r.Close {
		b = append(b, "Connection: close\r\n"...)
	}
	if r.ContentType != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, r.ContentType...)
		b = append(b, "\r\n"...)
	}
	if len(r.Body) > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.Body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	_, err := w.Write(b)
	*bp = b
	bufPool.Put(bp)
	if err != nil {
		return err
	}
	if len(r.Body) > 0 {
		if _, err := w.Write(r.Body); err != nil {
			return err
		}
	}
	return nil
}

// httpProto is the protocol prefix both start-line parsers check for.
var httpProto = []byte("HTTP/1.")

// ReadRequest parses a request from the connection.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	i1 := bytes.IndexByte(line, ' ')
	i2 := -1
	if i1 >= 0 {
		i2 = bytes.IndexByte(line[i1+1:], ' ')
	}
	if i1 < 0 || i2 < 0 || !bytes.HasPrefix(line[i1+1+i2+1:], httpProto) {
		//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, line)
	}
	req := &Request{
		Method: internToken(line[:i1]),
		Path:   string(line[i1+1 : i1+1+i2]),
	}
	var f fields
	if err := readHeaders(br, &f); err != nil {
		return nil, err
	}
	req.Host, req.ContentType, req.Close = f.host, f.contentType, f.close
	if f.hasLength {
		if f.lengthBad {
			//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
			return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformedRequest, f.lengthRaw)
		}
		if f.length > maxBodyLen {
			return nil, ErrBodyTooLarge
		}
		req.Body = make([]byte, f.length)
		if _, err := io.ReadFull(br, req.Body); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// brPool recycles the readers one-shot exchanges (Get, ReadRequestConn)
// parse with: a one-shot message is fully consumed before the call
// returns, so the reader holds no live state when it goes back.
var brPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

func readPooled(conn net.Conn) (*Response, error) {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(conn)
	resp, err := ReadResponse(br)
	br.Reset(nil)
	brPool.Put(br)
	return resp, err
}

// ReadRequestConn parses the one request of a one-shot connection using a
// pooled reader. A kept-alive connection needs a reader of its own for
// its whole life instead (see Post).
func ReadRequestConn(conn net.Conn) (*Request, error) {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(conn)
	req, err := ReadRequest(br)
	br.Reset(nil)
	brPool.Put(br)
	return req, err
}

// Post performs one POST on a kept-alive connection: the request does not
// claim Connection: close, and the response is parsed from br, the reader
// that owns the connection's inbound bytes across exchanges.
func Post(conn net.Conn, br *bufio.Reader, host, path, contentType string, body []byte) (*Response, error) {
	r := Request{Method: "POST", Host: host, Path: path, ContentType: contentType, Body: body}
	if err := r.Write(conn); err != nil {
		return nil, err
	}
	return ReadResponse(br)
}

// WriteResponse sends a response with the given status, header fields and
// body. Content-Length is always sent.
func WriteResponse(w io.Writer, status int, h Header, body []byte) error {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, StatusText(status)...)
	b = append(b, "\r\n"...)
	if h.ContentType != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, h.ContentType...)
		b = append(b, "\r\n"...)
	}
	if h.Location != "" {
		b = append(b, "Location: "...)
		b = append(b, h.Location...)
		b = append(b, "\r\n"...)
	}
	if h.HSTS {
		b = append(b, "Strict-Transport-Security: "+hstsPolicy+"\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n"...)
	if h.Close {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, "\r\n"...)
	_, err := w.Write(b)
	*bp = b
	bufPool.Put(bp)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadResponse parses a response from the connection.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	i1 := bytes.IndexByte(line, ' ')
	if i1 < 0 || !bytes.HasPrefix(line, httpProto) {
		//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformedResponse, line)
	}
	sb := line[i1+1:]
	if i2 := bytes.IndexByte(sb, ' '); i2 >= 0 {
		sb = sb[:i2]
	}
	status, err := atoiBytes(sb)
	if err != nil {
		//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
		return nil, fmt.Errorf("%w: bad status code %q", ErrMalformedResponse, sb)
	}
	var f fields
	if err := readHeaders(br, &f); err != nil {
		return nil, err
	}
	resp := &Response{
		StatusCode:  status,
		ContentType: f.contentType,
		Close:       f.close,
		location:    f.location,
		hsts:        f.hsts,
	}
	n := 0
	if f.hasLength {
		if f.lengthBad {
			//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
			return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformedResponse, f.lengthRaw)
		}
		if f.length > maxBodyLen {
			return nil, ErrBodyTooLarge
		}
		n = f.length
	}
	resp.Body = make([]byte, n)
	if _, err := io.ReadFull(br, resp.Body); err != nil {
		return nil, err
	}
	return resp, nil
}

// readLine reads one CRLF-terminated line and returns it without the
// trailing "\r\n" chars, as a slice into the reader's buffer — valid only
// until the next read, so callers copy what they keep. Lines longer than
// the buffer are accumulated (rare; protocol lines are short).
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		acc := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(acc) > maxLineLen {
				return nil, ErrMalformedRequest
			}
			line, err = br.ReadSlice('\n')
			acc = append(acc, line...)
		}
		line = acc
	}
	if err != nil {
		return nil, err
	}
	if len(line) > maxLineLen {
		return nil, ErrMalformedRequest
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// fields is the fixed header set both parsers keep. A repeated header
// keeps its last value, Content-Length included: a malformed length is
// an error only if no later Content-Length line replaces it.
type fields struct {
	host, contentType, location string
	hsts, close                 bool

	hasLength bool
	length    int
	lengthBad bool   // the last Content-Length was not a non-negative integer
	lengthRaw string // that value, kept for the error
}

// readHeaders reads the header block up to its blank line, bounded by
// maxHeaderLines, recording the fixed fields into f.
func readHeaders(br *bufio.Reader, f *fields) error {
	for i := 0; i < maxHeaderLines; i++ {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		c := bytes.IndexByte(line, ':')
		if c < 0 {
			//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
			return fmt.Errorf("%w: bad header line %q", ErrMalformedRequest, line)
		}
		f.set(bytes.TrimSpace(line[:c]), bytes.TrimSpace(line[c+1:]))
	}
	//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
	return fmt.Errorf("%w: too many header lines", ErrMalformedRequest)
}

// set records one header line when its name (matched ASCII
// case-insensitively) is a fixed field, copying the value out of the
// reader's buffer; any other header is dropped.
func (f *fields) set(name, value []byte) {
	switch {
	case equalFoldASCII(name, "host"):
		f.host = string(value)
	case equalFoldASCII(name, "content-type"):
		f.contentType = internToken(value)
	case equalFoldASCII(name, "content-length"):
		n, err := atoiBytes(value)
		f.hasLength, f.length = true, n
		f.lengthBad = err != nil || n < 0
		f.lengthRaw = ""
		if f.lengthBad {
			f.lengthRaw = string(value)
		}
	case equalFoldASCII(name, "location"):
		f.location = string(value)
	case equalFoldASCII(name, "strict-transport-security"):
		f.hsts = true
	case equalFoldASCII(name, "connection"):
		f.close = equalFoldASCII(value, "close")
	}
}

// equalFoldASCII reports whether b equals the lower-case ASCII string s
// under ASCII case folding. Unlike bytes.EqualFold it never folds a
// non-ASCII rune onto an ASCII letter (U+212A KELVIN SIGN is not "k").
func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// internToken returns canonical strings for the dialect's fixed tokens
// (methods and the content types every simulated peer sends), avoiding a
// per-message allocation.
func internToken(b []byte) string {
	switch string(b) {
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "text/html":
		return "text/html"
	case "application/json":
		return "application/json"
	}
	return string(b)
}

// atoiBytes is strconv.Atoi for a byte slice: an allocation-free
// all-digits fast path, falling back to Atoi (and its exact error
// semantics) for anything else.
func atoiBytes(b []byte) (int, error) {
	if n := len(b); n > 0 && n <= 9 {
		v, ok := 0, true
		for _, c := range b {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if ok {
			return v, nil
		}
	}
	return strconv.Atoi(string(b))
}

// StatusText returns the reason phrase for the status codes the study uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 307:
		return "Temporary Redirect"
	case 308:
		return "Permanent Redirect"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// Get performs one GET over an established connection (plain or TLS) and
// parses the response.
func Get(conn net.Conn, host, path string) (*Response, error) {
	if err := WriteRequest(conn, "GET", host, path); err != nil {
		return nil, err
	}
	return readPooled(conn)
}
