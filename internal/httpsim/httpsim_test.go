package httpsim

import (
	"bufio"
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simnet"
)

func pipePair() (client, server *simnet.Conn) {
	return simnet.Pipe(
		simnet.Addr{AP: netip.MustParseAddrPort("10.0.0.1:5000")},
		simnet.Addr{AP: netip.MustParseAddrPort("192.0.2.1:80")},
	)
}

func TestRequestRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, "GET", "www.agency.gov", "/services"); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/services" || req.Host != "www.agency.gov" {
		t.Errorf("req = %+v", req)
	}
}

func TestRequestDefaultPath(t *testing.T) {
	var buf bytes.Buffer
	WriteRequest(&buf, "GET", "h.gov", "")
	req, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if req.Path != "/" {
		t.Errorf("path = %q, want /", req.Path)
	}
}

func TestResponseRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("<html>hello</html>")
	hdr := Header{ContentType: "text/html", HSTS: true, Close: true}
	if err := WriteResponse(&buf, 200, hdr, body); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Errorf("resp = %+v", resp)
	}
	if !resp.HSTS() || resp.ContentType != "text/html" || !resp.Close {
		t.Errorf("header fields lost: HSTS=%v ContentType=%q Close=%v", resp.HSTS(), resp.ContentType, resp.Close)
	}
}

func TestRedirectResponse(t *testing.T) {
	var buf bytes.Buffer
	WriteResponse(&buf, 301, Header{Location: "https://www.agency.gov/"}, nil)
	resp, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsRedirect() {
		t.Error("301 not classified as redirect")
	}
	if resp.Location() != "https://www.agency.gov/" {
		t.Errorf("Location = %q", resp.Location())
	}
}

func TestReadResponseMalformed(t *testing.T) {
	cases := []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeaderNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort",
	}
	for _, raw := range cases {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("accepted malformed response %q", raw)
		}
	}
}

func TestReadRequestMalformed(t *testing.T) {
	for _, raw := range []string{"NOPE\r\n\r\n", "GET /\r\n\r\n", "GET / FTP/1.0\r\n\r\n"} {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("accepted malformed request %q", raw)
		}
	}
}

func TestBodyTooLarge(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err != ErrBodyTooLarge {
		t.Errorf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestGetOverSimnetConn(t *testing.T) {
	client, server := pipePair()
	go func() {
		defer server.Close()
		req, err := ReadRequest(bufio.NewReader(server))
		if err != nil || req.Host != "www.agency.gov" {
			WriteResponse(server, 500, Header{Close: true}, nil)
			return
		}
		WriteResponse(server, 200, Header{ContentType: "text/html", Close: true}, RenderPage("Agency", nil))
	}()
	resp, err := Get(client, "www.agency.gov", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if !bytes.Contains(resp.Body, []byte("Agency")) {
		t.Error("body missing title")
	}
}

func TestRenderAndExtractLinks(t *testing.T) {
	links := []string{"http://a.gov.br/", "https://b.gouv.fr/page", "/relative"}
	body := RenderPage("Portal", links)
	got := ExtractLinks(body)
	if !reflect.DeepEqual(got, links) {
		t.Errorf("ExtractLinks = %v, want %v", got, links)
	}
}

func TestExtractLinksVariants(t *testing.T) {
	html := `<a href='http://single.gov.br/x'>a</a>
	<A HREF="http://upper.gov.br">b</A>
	<a data-x=1 href=http://bare.gov.br/y>c</a>
	<a href="">empty</a>
	<a href="#frag">frag</a>`
	got := ExtractLinks([]byte(html))
	want := []string{"http://single.gov.br/x", "http://upper.gov.br", "http://bare.gov.br/y", "#frag"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractLinks = %v, want %v", got, want)
	}
}

func TestExtractLinksMalformed(t *testing.T) {
	// An unterminated quote must not loop or panic.
	got := ExtractLinks([]byte(`<a href="http://x.gov`))
	if len(got) != 0 {
		t.Errorf("got %v from unterminated href", got)
	}
	if got := ExtractLinks([]byte(`href=`)); len(got) != 0 {
		t.Errorf("got %v from dangling href", got)
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"https://a.gov.br/page":   "a.gov.br",
		"http://B.GOV.BR":         "b.gov.br",
		"//proto.rel.gov":         "proto.rel.gov",
		"bare.gov.br/deep/path":   "bare.gov.br",
		"http://host.gov:8443/x":  "host.gov",
		"/relative/path":          "",
		"#fragment":               "",
		"?query=1":                "",
		"nodots":                  "",
		"https://x.gov.br?q=1":    "x.gov.br",
		"https://y.gov.br#anchor": "y.gov.br",
	}
	for link, want := range cases {
		if got := HostOf(link); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", link, got, want)
		}
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(301) != "Moved Permanently" {
		t.Error("status text wrong")
	}
	if StatusText(418) == "" {
		t.Error("unknown status renders empty")
	}
}

func TestEscapeHTMLInRenderedPage(t *testing.T) {
	body := string(RenderPage(`<script>"x"&y`, nil))
	if strings.Contains(body, "<script>") {
		t.Error("title not escaped")
	}
	if !strings.Contains(body, "&lt;script&gt;") {
		t.Error("escaped form missing")
	}
}

// TestPostRoundtrip runs two POSTs on one kept-alive connection: neither
// side claims Connection: close, and each side's reader carries over
// between exchanges.
func TestPostRoundtrip(t *testing.T) {
	client, server := pipePair()
	go func() {
		defer server.Close()
		br := bufio.NewReader(server)
		for {
			req, err := ReadRequest(br)
			if err != nil {
				return
			}
			if req.Method != "POST" || req.Close || req.ContentType != "application/json" || string(req.Body) != `{"a":1}` {
				WriteResponse(server, 500, Header{Close: true}, []byte("bad request"))
				return
			}
			WriteResponse(server, 200, Header{ContentType: "application/json"}, []byte(`{"ok":true}`))
		}
	}()
	br := bufio.NewReader(client)
	for i := 0; i < 2; i++ {
		resp, err := Post(client, br, "api.gov", "/endpoint", "application/json", []byte(`{"a":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Close || resp.ContentType != "application/json" || string(resp.Body) != `{"ok":true}` {
			t.Fatalf("exchange %d: resp = %d close=%v %q %q", i, resp.StatusCode, resp.Close, resp.ContentType, resp.Body)
		}
	}
	client.Close()
}

// TestHeaderFieldsFixedSet: header names match ASCII case-insensitively,
// a repeated header keeps its last value (Content-Length included), and
// headers outside the fixed set are dropped.
func TestHeaderFieldsFixedSet(t *testing.T) {
	raw := "HTTP/1.1 301 Moved\r\nlocation: https://a.gov/\r\nLOCATION: https://b.gov/\r\n" +
		"X-Unread: 1\r\nstrict-transport-SECURITY:\r\nConnection: Close\r\n" +
		"Content-Length: x\r\nContent-Length: 2\r\n\r\nok"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Location() != "https://b.gov/" || !resp.HSTS() || !resp.Close || string(resp.Body) != "ok" {
		t.Errorf("resp = %+v, Location %q, HSTS %v", resp, resp.Location(), resp.HSTS())
	}
	raw = "GET / HTTP/1.1\r\nHOST: x.gov\r\nHoſt: y.gov\r\nconnection: keep-alive\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if req.Host != "x.gov" || req.Close {
		t.Errorf("req = %+v (a non-ASCII name must not fold onto Host)", req)
	}
	raw = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: -1\r\n\r\nok"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("a malformed last Content-Length was accepted")
	}
}

func TestReadRequestBodyLimits(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err != ErrBodyTooLarge {
		t.Errorf("err = %v, want ErrBodyTooLarge", err)
	}
	raw = "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -4\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("negative content-length accepted")
	}
	raw = "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("truncated body accepted")
	}
}
