package tlssim

import (
	"bytes"
	"testing"
)

// FuzzParseClientHello: parseClientHello never panics, and a hello it
// accepts re-marshals to exactly the bytes it was parsed from (trailing
// bytes past the server name are ignored).
func FuzzParseClientHello(f *testing.F) {
	for _, h := range []clientHello{
		{MinVersion: TLS1_0, MaxVersion: TLS1_3, ServerName: "www.agency.gov"},
		{MinVersion: SSLv2, MaxVersion: SSLv3},
		{MinVersion: TLS1_2, MaxVersion: TLS1_2, ServerName: "x"},
	} {
		b := h.marshal()
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0xff))
	}
	f.Add([]byte{msgClientHello, 3, 1, 3, 4, 0xff, 0xff, 'a'})
	f.Add([]byte{msgServerHello, 3, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := parseClientHello(p)
		if err != nil {
			return
		}
		b := h.marshal()
		if !bytes.Equal(b, p[:len(b)]) {
			t.Fatalf("re-marshaled hello %x is not the parsed prefix of %x", b, p)
		}
	})
}

// FuzzParseServerHello: parseServerHello never panics, and a hello it
// accepts re-marshals to its first three bytes.
func FuzzParseServerHello(f *testing.F) {
	for _, v := range []Version{SSLv2, SSLv3, TLS1_2, TLS1_3, 0xdead} {
		b := serverHello{Version: v}.marshal()
		f.Add(b)
		f.Add(b[:2])
	}
	f.Add([]byte{msgClientHello, 3, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := parseServerHello(p)
		if err != nil {
			return
		}
		if b := h.marshal(); !bytes.Equal(b, p[:3]) {
			t.Fatalf("re-marshaled hello %x, parsed from %x", b, p)
		}
	})
}

// FuzzRecordReader: the record reader never panics on any byte stream,
// and each record it returns re-frames through writeRecord to exactly
// the bytes it consumed, so the records read so far are a prefix of the
// stream. Payloads are re-framed before the next read, which may reuse
// their buffer.
func FuzzRecordReader(f *testing.F) {
	var stream bytes.Buffer
	if err := writeRecords(&stream, recordHandshake, TLS1_2,
		clientHello{MinVersion: TLS1_0, MaxVersion: TLS1_3, ServerName: "www.agency.gov"}.marshal(),
		serverHello{Version: TLS1_2}.marshal(),
		bytes.Repeat([]byte{msgCertificate}, 3*smallRecordLen)); err != nil {
		f.Fatal(err)
	}
	if err := writeRecord(&stream, recordAlert, SSLv3, []byte{2, AlertProtocolVersion}); err != nil {
		f.Fatal(err)
	}
	wire := stream.Bytes()
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:4])
	f.Add([]byte{recordAppData, 3, 3, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rr := recordReader{r: bytes.NewReader(data)}
		var out bytes.Buffer
		for {
			typ, ver, payload, err := rr.next()
			if err != nil {
				break
			}
			if err := writeRecord(&out, typ, ver, payload); err != nil {
				t.Fatalf("re-framing a %d-byte record: %v", len(payload), err)
			}
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-framed records %x are not a prefix of the stream %x", out.Bytes(), data)
		}
	})
}
