package httpsim

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// fuzzSeeds adds each wire message, its truncations, and the given
// hostile inputs to the corpus.
func fuzzSeeds(f *testing.F, wire [][]byte, hostile []string) {
	for _, w := range wire {
		f.Add(w)
		f.Add(w[:len(w)/2])
		f.Add(w[:len(w)-1])
	}
	for _, h := range hostile {
		f.Add([]byte(h))
	}
	f.Add([]byte{})
}

// longLine is a start line past maxLineLen.
var longLine = "GET /" + strings.Repeat("a", maxLineLen) + " HTTP/1.1\r\n\r\n"

// FuzzReadRequest: ReadRequest never panics, and a request it accepts
// re-encodes through Request.Write to one that parses to the same
// method, path, host, content type, Close and body — the fields the
// writer carries.
func FuzzReadRequest(f *testing.F) {
	var wire [][]byte
	for _, r := range []Request{
		{Method: "GET", Host: "www.agency.gov", Path: "/services", Close: true},
		{Method: "GET", Host: "h.gov", Close: true},
		{Method: "POST", Host: "api.gov", Path: "/endpoint", ContentType: "application/json", Body: []byte(`{"a":1}`), Close: true},
		{Method: "POST", Host: "acme.gov", Path: "/acme/finalize", ContentType: "application/json", Body: []byte(`{"order_id":"o-1"}`)},
	} {
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			f.Fatal(err)
		}
		wire = append(wire, buf.Bytes())
	}
	fuzzSeeds(f, wire[:3], []string{
		"NOPE\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / FTP/1.0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -4\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort",
		longLine,
	})
	fuzzSeeds(f, wire[3:], []string{
		"GET / HTTP/1.1\r\nhOsT: a.gov\r\nHOST: b.gov\r\nCONNECTION: CLOSE\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Type: text/html\r\ncontent-type: application/json\r\n" +
			"Content-Length: 1\r\ncontent-length: 2\r\n\r\nok",
		"GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\nX-Other: y\r\n\r\n",
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := req.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%q", err, buf.Bytes())
		}
		wantPath := req.Path
		if wantPath == "" {
			wantPath = "/" // Request.Write's default
		}
		if again.Method != req.Method || again.Path != wantPath || again.Host != req.Host ||
			again.ContentType != req.ContentType || again.Close != req.Close || !bytes.Equal(again.Body, req.Body) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzReadResponse: ReadResponse never panics, and a response it
// accepts re-encodes through WriteResponse to one that parses to the same
// status, content type, location, HSTS presence, Close and body.
func FuzzReadResponse(f *testing.F) {
	var wire [][]byte
	for _, r := range []struct {
		status int
		header Header
		body   string
	}{
		{200, Header{ContentType: "text/html", HSTS: true, Close: true}, "<html>hello</html>"},
		{301, Header{Location: "https://www.agency.gov/", Close: true}, ""},
		{500, Header{Close: true}, "bad request"},
		{200, Header{ContentType: "application/json"}, `{"order_id":"o-1","tokens":{}}`},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, r.status, r.header, []byte(r.body)); err != nil {
			f.Fatal(err)
		}
		wire = append(wire, buf.Bytes())
	}
	fuzzSeeds(f, wire[:3], []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeaderNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n",
		"HTTP/1.1 200 " + strings.Repeat("K", maxLineLen) + "\r\n\r\n",
	})
	fuzzSeeds(f, wire[3:], []string{
		"HTTP/1.1 302 Found\r\nlocation: /a\r\nLOCATION: /b\r\nStrict-Transport-Security:\r\n\r\n",
		"HTTP/1.1 200 OK\r\nCONTENT-LENGTH: 5\r\nContent-Length: 2\r\nconnection: CLOSE\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		h := Header{ContentType: resp.ContentType, Location: resp.Location(), HSTS: resp.HSTS(), Close: resp.Close}
		if err := WriteResponse(&buf, resp.StatusCode, h, resp.Body); err != nil {
			t.Fatal(err)
		}
		again, err := ReadResponse(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v\n%q", err, buf.Bytes())
		}
		if again.StatusCode != resp.StatusCode || again.ContentType != resp.ContentType ||
			again.Location() != resp.Location() || again.HSTS() != resp.HSTS() ||
			again.Close != resp.Close || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", again, resp)
		}
	})
}
