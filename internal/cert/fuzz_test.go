package cert

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzChain builds a signed three-certificate chain (leaf, intermediate,
// self-signed root) the way the simulated CAs issue them.
func fuzzChain() []*Certificate {
	r := rand.New(rand.NewSource(40))
	rootKey := NewKey(r, KeyRSA, 4096)
	root := &Certificate{
		SerialNumber:       1,
		Subject:            Name{CommonName: "Fuzz Root CA", Organization: "Fuzz Trust", Country: "US"},
		Issuer:             Name{CommonName: "Fuzz Root CA", Organization: "Fuzz Trust", Country: "US"},
		NotBefore:          t0,
		NotAfter:           t1.AddDate(20, 0, 0),
		PublicKey:          rootKey,
		SignatureAlgorithm: SHA256WithRSA,
		IsCA:               true,
	}
	root.Sign(rootKey.ID)
	interKey := NewKey(r, KeyECDSA, 256)
	inter := &Certificate{
		SerialNumber:       2,
		Subject:            Name{CommonName: "Fuzz Issuing CA", Organization: "Fuzz Trust", Country: "US"},
		Issuer:             root.Subject,
		NotBefore:          t0,
		NotAfter:           t1.AddDate(5, 0, 0),
		PublicKey:          interKey,
		SignatureAlgorithm: SHA256WithRSA,
		IsCA:               true,
		AuthorityKeyID:     rootKey.ID,
	}
	inter.Sign(rootKey.ID)
	leaf := testCert(r)
	leaf.Issuer = inter.Subject
	leaf.DNSNames = append(leaf.DNSNames, "*.example.gov")
	leaf.PolicyOIDs = []string{"2.23.140.1.1"}
	leaf.SignatureAlgorithm = ECDSAWithSHA256
	leaf.AuthorityKeyID = interKey.ID
	leaf.Sign(interKey.ID)
	return []*Certificate{leaf, inter, root}
}

// FuzzParse: whatever Parse accepts survives an Encode/Parse round trip
// unchanged.
func FuzzParse(f *testing.F) {
	chain := fuzzChain()
	for _, c := range chain {
		enc := c.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	// Magic followed by an oversize string length.
	f.Add(binary.AppendUvarint(append(encodeMagic[:0:0], encodeMagic[:]...), maxStringLen+1))
	f.Add([]byte("SC01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		again, err := Parse(c.Encode())
		if err != nil {
			t.Fatalf("re-encoded certificate rejected: %v", err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("round trip changed the certificate:\n got %+v\nwant %+v", again, c)
		}
	})
}

// FuzzParseChain: ParseChain never panics, and a chain it accepts
// re-encodes to a chain that parses to the same certificates.
func FuzzParseChain(f *testing.F) {
	chain := fuzzChain()
	for n := 0; n <= len(chain); n++ {
		enc := EncodeChain(chain[:n])
		f.Add(enc)
		if len(enc) > 2 {
			f.Add(enc[:len(enc)-1])
			f.Add(enc[:len(enc)/2])
		}
	}
	// Oversize chain count, and an entry length far past the input.
	f.Add(binary.AppendUvarint(nil, maxChainLen+1))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<62))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<63))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseChain(data)
		if err != nil {
			return
		}
		again, err := ParseChain(EncodeChain(got))
		if err != nil {
			t.Fatalf("re-encoded chain rejected: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-encoded chain has %d certificates, want %d", len(again), len(got))
		}
		for i := range got {
			if !bytes.Equal(again[i].Encode(), got[i].Encode()) {
				t.Fatalf("chain entry %d changed across a round trip", i)
			}
		}
	})
}
