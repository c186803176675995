package httpsim

import (
	"bufio"
	"bytes"
	"maps"
	"reflect"
	"strconv"
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
// re-encodes through WriteRequestBody to one that parses to the same
// method, path, host, content type and body — the fields the writer
// carries.
func FuzzReadRequest(f *testing.F) {
	var wire [][]byte
	for _, r := range []struct{ method, host, path, ctype, body string }{
		{"GET", "www.agency.gov", "/services", "", ""},
		{"GET", "h.gov", "", "", ""},
		{"POST", "api.gov", "/endpoint", "application/json", `{"a":1}`},
	} {
		var buf bytes.Buffer
		if err := WriteRequestBody(&buf, r.method, r.host, r.path, r.ctype, []byte(r.body)); err != nil {
			f.Fatal(err)
		}
		wire = append(wire, buf.Bytes())
	}
	fuzzSeeds(f, wire, []string{
		"NOPE\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / FTP/1.0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -4\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort",
		longLine,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRequestBody(&buf, req.Method, req.Host, req.Path, req.Header["content-type"], req.Body); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%q", err, buf.Bytes())
		}
		wantPath := req.Path
		if wantPath == "" {
			wantPath = "/" // WriteRequestBody's default
		}
		if again.Method != req.Method || again.Path != wantPath || again.Host != req.Host ||
			again.Header["content-type"] != req.Header["content-type"] || !bytes.Equal(again.Body, req.Body) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzReadResponse: ReadResponse never panics, and a response it
// accepts re-encodes through WriteResponse to one that parses equal,
// with Content-Length and Connection set the way the writer manages them.
func FuzzReadResponse(f *testing.F) {
	var wire [][]byte
	for _, r := range []struct {
		status int
		header map[string]string
		body   string
	}{
		{200, map[string]string{"Content-Type": "text/html", "Strict-Transport-Security": "max-age=31536000"}, "<html>hello</html>"},
		{301, map[string]string{"Location": "https://www.agency.gov/"}, ""},
		{500, nil, "bad request"},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, r.status, r.header, []byte(r.body)); err != nil {
			f.Fatal(err)
		}
		wire = append(wire, buf.Bytes())
	}
	fuzzSeeds(f, wire, []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeaderNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n",
		"HTTP/1.1 200 " + strings.Repeat("K", maxLineLen) + "\r\n\r\n",
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		header := maps.Clone(resp.Header)
		delete(header, "content-length")
		delete(header, "connection")
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp.StatusCode, header, resp.Body); err != nil {
			t.Fatal(err)
		}
		again, err := ReadResponse(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v\n%q", err, buf.Bytes())
		}
		header["content-length"] = strconv.Itoa(len(resp.Body))
		header["connection"] = "close"
		if again.StatusCode != resp.StatusCode || !bytes.Equal(again.Body, resp.Body) || !reflect.DeepEqual(again.Header, header) {
			t.Fatalf("round trip changed the response:\n got %+v\nwant status %d header %v body %q",
				again, resp.StatusCode, header, resp.Body)
		}
	})
}
