package tlssim

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/simnet"
)

func testChain(t *testing.T) []*cert.Certificate {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	reg := ca.NewRegistry(rng)
	a := reg.MustLookup("Let's Encrypt Authority X3")
	return a.Issue(ca.Request{
		Hostnames: []string{"www.agency.gov"},
		Key:       cert.NewKey(rng, cert.KeyRSA, 2048),
		NotBefore: time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC),
	})
}

// handshakePair runs a server handshake in a goroutine and the client
// handshake in the caller, returning both results.
func handshakePair(t *testing.T, scfg *ServerConfig, ccfg *ClientConfig) (*Conn, error, *Conn, error) {
	t.Helper()
	client, server := simnet.Pipe(
		simnet.Addr{AP: netip.MustParseAddrPort("10.0.0.1:5000")},
		simnet.Addr{AP: netip.MustParseAddrPort("192.0.2.1:443")},
	)
	type res struct {
		c   *Conn
		err error
	}
	srvCh := make(chan res, 1)
	go func() {
		c, err := ServerHandshake(server, scfg)
		srvCh <- res{c, err}
	}()
	cc, cerr := ClientHandshake(client, ccfg)
	sr := <-srvCh
	return cc, cerr, sr.c, sr.err
}

func TestHandshakeSuccess(t *testing.T) {
	chain := testChain(t)
	scfg := &ServerConfig{Chain: chain, MinVersion: TLS1_0, MaxVersion: TLS1_2}
	cc, cerr, sc, serr := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
	if cerr != nil || serr != nil {
		t.Fatalf("handshake errors: client=%v server=%v", cerr, serr)
	}
	st := cc.ConnectionState()
	if st.Version != TLS1_2 {
		t.Errorf("negotiated %v, want TLS1_2", st.Version)
	}
	if len(st.Chain) != 2 {
		t.Fatalf("chain length = %d", len(st.Chain))
	}
	if st.Chain[0].Subject.CommonName != "www.agency.gov" {
		t.Errorf("leaf CN = %q", st.Chain[0].Subject.CommonName)
	}
	if sc.ConnectionState().ServerName != "www.agency.gov" {
		t.Errorf("server saw SNI %q", sc.ConnectionState().ServerName)
	}
	// Chain fingerprints must survive the wire.
	if st.Chain[0].Fingerprint() != chain[0].Fingerprint() {
		t.Error("leaf fingerprint changed in transit")
	}
}

func TestNegotiationPicksHighestCommon(t *testing.T) {
	chain := testChain(t)
	cases := []struct {
		srvMin, srvMax Version
		want           Version
	}{
		{TLS1_0, TLS1_3, TLS1_3},
		{SSLv3, TLS1_0, TLS1_0},
		{TLS1_2, TLS1_2, TLS1_2},
	}
	for _, tc := range cases {
		scfg := &ServerConfig{Chain: chain, MinVersion: tc.srvMin, MaxVersion: tc.srvMax}
		cc, cerr, _, _ := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
		if cerr != nil {
			t.Fatalf("min=%v max=%v: %v", tc.srvMin, tc.srvMax, cerr)
		}
		if got := cc.ConnectionState().Version; got != tc.want {
			t.Errorf("min=%v max=%v negotiated %v, want %v", tc.srvMin, tc.srvMax, got, tc.want)
		}
	}
}

func TestUnsupportedProtocolSSLv2(t *testing.T) {
	scfg := &ServerConfig{Chain: testChain(t), MinVersion: SSLv2, MaxVersion: SSLv2, Quirk: QuirkSSLv2Only}
	_, cerr, _, _ := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
	if !errors.Is(cerr, ErrUnsupportedProtocol) {
		t.Fatalf("client err = %v, want ErrUnsupportedProtocol", cerr)
	}
}

func TestWrongVersionNumber(t *testing.T) {
	scfg := &ServerConfig{Chain: testChain(t), MinVersion: TLS1_0, MaxVersion: TLS1_2, Quirk: QuirkWrongVersionNumber}
	_, cerr, _, _ := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
	if !errors.Is(cerr, ErrWrongVersionNumber) {
		t.Fatalf("client err = %v, want ErrWrongVersionNumber", cerr)
	}
}

func TestAlertErrors(t *testing.T) {
	cases := []struct {
		quirk Quirk
		want  string
	}{
		{QuirkInternalErrorAlert, "tlsv1 alert internal error"},
		{QuirkHandshakeFailureAlert, "sslv3 alert handshake failure"},
		{QuirkProtocolVersionAlert, "tlsv1 alert protocol version"},
	}
	for _, tc := range cases {
		scfg := &ServerConfig{Chain: testChain(t), MinVersion: TLS1_0, MaxVersion: TLS1_2, Quirk: tc.quirk}
		_, cerr, _, _ := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
		var alert AlertError
		if !errors.As(cerr, &alert) {
			t.Fatalf("quirk %v: err = %v, want AlertError", tc.quirk, cerr)
		}
		if alert.Error() != tc.want {
			t.Errorf("quirk %v: alert = %q, want %q", tc.quirk, alert.Error(), tc.want)
		}
	}
}

func TestAppDataAfterHandshake(t *testing.T) {
	scfg := &ServerConfig{Chain: testChain(t), MinVersion: TLS1_0, MaxVersion: TLS1_2}
	cc, cerr, sc, serr := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	msg := []byte("GET / HTTP/1.1\r\nHost: www.agency.gov\r\n\r\n")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(sc, buf); err != nil {
			done <- err
			return
		}
		_, err := sc.Write([]byte("HTTP/1.1 200 OK\r\n\r\n"))
		done <- err
	}()
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 19)
	if _, err := io.ReadFull(cc, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:15]) != "HTTP/1.1 200 OK" {
		t.Errorf("response = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLargeAppDataChunking(t *testing.T) {
	scfg := &ServerConfig{Chain: testChain(t), MinVersion: TLS1_0, MaxVersion: TLS1_2}
	cc, cerr, sc, serr := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	payload := make([]byte, 70_000) // forces multiple records
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		sc.Write(payload)
		sc.Close()
	}()
	got, err := io.ReadAll(cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestClientRejectsGarbageServer(t *testing.T) {
	client, server := simnet.Pipe(
		simnet.Addr{AP: netip.MustParseAddrPort("10.0.0.1:5000")},
		simnet.Addr{AP: netip.MustParseAddrPort("192.0.2.1:443")},
	)
	go func() {
		server.Write([]byte("totally not tls at all, just junk bytes"))
		server.Close()
	}()
	_, err := ClientHandshake(client, DefaultClientConfig("x.gov"))
	if err == nil {
		t.Fatal("client accepted garbage")
	}
}

func TestVersionStrings(t *testing.T) {
	cases := map[Version]string{
		SSLv2: "SSLv2", SSLv3: "SSLv3", TLS1_0: "TLSv1.0",
		TLS1_2: "TLSv1.2", TLS1_3: "TLSv1.3",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d String = %q, want %q", v, v.String(), want)
		}
	}
}

func TestConnPassthroughMethods(t *testing.T) {
	chain := testChain(t)
	scfg := &ServerConfig{Chain: chain, MinVersion: TLS1_0, MaxVersion: TLS1_2}
	cc, cerr, _, serr := handshakePair(t, scfg, DefaultClientConfig("www.agency.gov"))
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	if cc.LocalAddr() == nil || cc.RemoteAddr() == nil {
		t.Error("addresses missing")
	}
	if err := cc.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Error(err)
	}
	if err := cc.SetReadDeadline(time.Time{}); err != nil {
		t.Error(err)
	}
	if err := cc.SetWriteDeadline(time.Time{}); err != nil {
		t.Error(err)
	}
	if cc.ConnectionState().ServerName != "www.agency.gov" {
		t.Error("state lost")
	}
	if err := cc.Close(); err != nil {
		t.Error(err)
	}
}

func TestUnknownVersionString(t *testing.T) {
	if s := Version(0x9999).String(); !strings.Contains(s, "9999") {
		t.Errorf("unknown version = %q", s)
	}
}

func TestAlertErrorUnknownDescription(t *testing.T) {
	e := AlertError{ProtocolVersion: TLS1_2, Description: 111}
	if !strings.Contains(e.Error(), "111") {
		t.Errorf("alert = %q", e.Error())
	}
}

func TestServerHandshakeRejectsGarbage(t *testing.T) {
	client, server := simnet.Pipe(
		simnet.Addr{AP: netip.MustParseAddrPort("10.0.0.1:5000")},
		simnet.Addr{AP: netip.MustParseAddrPort("192.0.2.1:443")},
	)
	go func() {
		client.Write([]byte("GET / HTTP/1.1\r\nHost: oops, plain http to a tls port\r\n\r\n"))
		client.Close() // EOF so the record reader cannot block forever
	}()
	_, err := ServerHandshake(server, &ServerConfig{Chain: testChain(t), MinVersion: TLS1_0, MaxVersion: TLS1_2})
	if err == nil {
		t.Fatal("server accepted plain http as a handshake")
	}
}

func TestRecordOversizeRejected(t *testing.T) {
	var sink bytes.Buffer
	if err := writeRecord(&sink, recordAppData, TLS1_2, make([]byte, maxRecordLen+1)); err != ErrRecordOversize {
		t.Errorf("err = %v, want ErrRecordOversize", err)
	}
}

func TestParseClientHelloTruncated(t *testing.T) {
	if _, err := parseClientHello([]byte{msgClientHello, 0, 1}); err == nil {
		t.Error("truncated hello accepted")
	}
	full := clientHello{MinVersion: SSLv3, MaxVersion: TLS1_3, ServerName: "x.gov"}.marshal()
	if _, err := parseClientHello(full[:len(full)-2]); err == nil {
		t.Error("short SNI accepted")
	}
	if _, err := parseServerHello([]byte{99}); err == nil {
		t.Error("bad server hello accepted")
	}
}
