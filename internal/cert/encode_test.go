package cert

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeParseRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	c := testCert(r)
	c.PolicyOIDs = []string{"2.23.140.1.1", "1.3.6.1.4.1.34697.2.1"}
	c.Sign(c.PublicKey.ID)
	got, err := Parse(c.Encode())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	if _, err := Parse([]byte("XXXXjunk")); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	c := testCert(r)
	c.Sign(c.PublicKey.ID)
	enc := c.Encode()
	for _, cut := range []int{1, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := Parse(enc[:cut]); err == nil {
			t.Errorf("Parse of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestParseRejectsTrailingBytes(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	c := testCert(r)
	enc := append(c.Encode(), 0xFF)
	if _, err := Parse(enc); err == nil {
		t.Error("Parse accepted trailing bytes")
	}
}

func TestChainRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var chain []*Certificate
	for i := 0; i < 3; i++ {
		c := testCert(r)
		c.Sign(c.PublicKey.ID)
		chain = append(chain, c)
	}
	got, err := ParseChain(EncodeChain(chain))
	if err != nil {
		t.Fatalf("ParseChain: %v", err)
	}
	if len(got) != len(chain) {
		t.Fatalf("roundtrip returned %d certs, want %d", len(got), len(chain))
	}
	for i := range got {
		// Compare the semantic fields, without the frozen caches
		// ParseChain seeds.
		g, w := *got[i], *chain[i]
		g.enc, g.tbs, g.fp = nil, nil, nil
		w.enc, w.tbs, w.fp = nil, nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("chain entry %d roundtrip mismatch", i)
		}
		if !bytes.Equal(got[i].Encode(), chain[i].Encode()) {
			t.Errorf("chain entry %d re-encoding mismatch", i)
		}
	}
}

func TestChainEmptyRoundtrip(t *testing.T) {
	got, err := ParseChain(EncodeChain(nil))
	if err != nil {
		t.Fatalf("ParseChain(empty): %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d certs", len(got))
	}
}

func TestParseChainRejectsOversizedCount(t *testing.T) {
	var b builder
	b.uvarint(1 << 40)
	if _, err := ParseChain(b.buf); err == nil {
		t.Error("accepted absurd chain length")
	}
}

func TestParseChainRejectsTrailing(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	c := testCert(r)
	enc := append(EncodeChain([]*Certificate{c}), 0x01)
	if _, err := ParseChain(enc); err == nil {
		t.Error("accepted trailing bytes after chain")
	}
}

func TestParseRejectsOversizeString(t *testing.T) {
	var b builder
	b.bytes(encodeMagic[:])
	b.uvarint(1)                // serial
	b.uvarint(maxStringLen + 1) // subject CN length: too large
	if _, err := Parse(b.buf); err != ErrOversize {
		t.Errorf("err = %v, want ErrOversize", err)
	}
}

// quickCert builds an arbitrary but well-formed certificate from fuzz input.
func quickCert(serial uint64, cn, org, country string, names []string, nb, na int64, keyBits uint16, alg uint8, isCA bool) *Certificate {
	c := &Certificate{
		SerialNumber:       serial,
		Subject:            Name{CommonName: clip(cn), Organization: clip(org), Country: clip(country)},
		Issuer:             Name{CommonName: "QuickCheck CA"},
		NotBefore:          time.Unix(nb%1<<40, 0).UTC(),
		NotAfter:           time.Unix(na%1<<40, 0).UTC(),
		PublicKey:          PublicKey{Type: KeyRSA, Bits: int(keyBits)},
		SignatureAlgorithm: SignatureAlgorithm(alg%9 + 1),
		IsCA:               isCA,
	}
	for _, n := range names {
		if len(c.DNSNames) >= 8 {
			break
		}
		c.DNSNames = append(c.DNSNames, clip(n))
	}
	return c
}

func clip(s string) string {
	if len(s) > 64 {
		return s[:64]
	}
	return s
}

func TestPropertyEncodeParseIdentity(t *testing.T) {
	f := func(serial uint64, cn, org, country string, names []string, nb, na int64, keyBits uint16, alg uint8, isCA bool) bool {
		c := quickCert(serial, cn, org, country, names, nb, na, keyBits, alg, isCA)
		got, err := Parse(c.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodingDeterministic(t *testing.T) {
	f := func(serial uint64, cn string, names []string) bool {
		a := quickCert(serial, cn, "", "", names, 0, 1, 2048, 3, false)
		b := quickCert(serial, cn, "", "", names, 0, 1, 2048, 3, false)
		return bytes.Equal(a.Encode(), b.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Parse(data)      // must not panic
		_, _ = ParseChain(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySignatureBindsTBS(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	key := NewKey(r, KeyRSA, 2048)
	f := func(serial uint64, cn string) bool {
		c := quickCert(serial, cn, "o", "c", nil, 0, 100, 2048, 3, false)
		c.Sign(key.ID)
		parent := &Certificate{PublicKey: key, IsCA: true}
		if c.CheckSignatureFrom(parent) != nil {
			return false
		}
		c.SerialNumber ^= 1
		return c.CheckSignatureFrom(parent) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
