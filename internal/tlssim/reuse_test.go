package tlssim

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/cert"
)

// TestChainSurvivesRecordBufferReuse guards the aliasing rule of the
// reused record buffer: a parsed chain keeps slices of the bytes it was
// parsed from, so the Certificate record must be copied before parsing (on
// a cache miss, or always without a cache). Application data the same Conn
// reads afterwards overwrites the buffer the record arrived in; the chain's
// encoding and fingerprint must not change.
func TestChainSurvivesRecordBufferReuse(t *testing.T) {
	cases := []struct {
		name  string
		cache *cert.ChainCache
	}{
		{"cache-miss", cert.NewChainCache()},
		{"no-cache", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			served := testChain(t)
			ccfg := DefaultClientConfig("www.agency.gov")
			ccfg.ChainCache = tc.cache
			scfg := &ServerConfig{Chain: served, MinVersion: TLS1_0, MaxVersion: TLS1_2}
			cc, cerr, sc, serr := handshakePair(t, scfg, ccfg)
			if cerr != nil || serr != nil {
				t.Fatalf("handshake: client=%v server=%v", cerr, serr)
			}
			chain := cc.ConnectionState().Chain
			encs := make([][]byte, len(chain))
			fps := make([][32]byte, len(chain))
			for i, c := range chain {
				encs[i] = bytes.Clone(c.Encode())
				fps[i] = c.Fingerprint()
			}
			if cap(cc.rec.buf) == 0 {
				t.Fatal("Certificate record did not use the reused buffer; the test exercises nothing")
			}

			// Records of every size up to past the buffer's capacity, read
			// through a small p so each one lands in the record buffer.
			go func() {
				for n := smallRecordLen + 1; n <= cap(cc.rec.buf)+64; n += 97 {
					sc.Write(bytes.Repeat([]byte{0xAA}, n))
				}
				sc.Close()
			}()
			var p [16]byte
			for {
				if _, err := cc.Read(p[:]); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if cc.rec.buf[0] != 0xAA {
				t.Fatal("application data never overwrote the record buffer")
			}

			for i, c := range chain {
				if !bytes.Equal(c.Encode(), encs[i]) {
					t.Errorf("chain[%d] encoding changed after the buffer was reused", i)
				}
				if c.Fingerprint() != fps[i] {
					t.Errorf("chain[%d] fingerprint changed after the buffer was reused", i)
				}
				if !bytes.Equal(c.Encode(), served[i].Encode()) {
					t.Errorf("chain[%d] differs from the served certificate", i)
				}
			}
		})
	}
}
