package verify

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cert"
	"repro/internal/truststore"
)

var scanTime = time.Date(2020, 4, 22, 0, 0, 0, 0, time.UTC)

// pki is a small hand-built hierarchy: trusted root -> intermediate -> leaf.
type pki struct {
	root, inter *cert.Certificate
	rootKey     cert.PublicKey
	interKey    cert.PublicKey
	store       *truststore.Store
	rng         *rand.Rand
}

func newPKI(t *testing.T, seed int64) *pki {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rootKey := cert.NewKey(r, cert.KeyRSA, 4096)
	root := &cert.Certificate{
		Subject:            cert.Name{CommonName: "Test Root CA", Organization: "Test Trust"},
		Issuer:             cert.Name{CommonName: "Test Root CA", Organization: "Test Trust"},
		NotBefore:          scanTime.AddDate(-10, 0, 0),
		NotAfter:           scanTime.AddDate(10, 0, 0),
		PublicKey:          rootKey,
		SignatureAlgorithm: cert.SHA256WithRSA,
		IsCA:               true,
	}
	root.Sign(rootKey.ID)

	interKey := cert.NewKey(r, cert.KeyRSA, 2048)
	inter := &cert.Certificate{
		Subject:            cert.Name{CommonName: "Test Issuing CA"},
		Issuer:             root.Subject,
		NotBefore:          scanTime.AddDate(-5, 0, 0),
		NotAfter:           scanTime.AddDate(5, 0, 0),
		PublicKey:          interKey,
		SignatureAlgorithm: cert.SHA256WithRSA,
		IsCA:               true,
	}
	inter.Sign(rootKey.ID)

	store := truststore.New()
	store.AddRoot(root)
	return &pki{root: root, inter: inter, rootKey: rootKey, interKey: interKey, store: store, rng: r}
}

func (p *pki) leaf(host string, mutate func(*cert.Certificate)) *cert.Certificate {
	key := cert.NewKey(p.rng, cert.KeyRSA, 2048)
	l := &cert.Certificate{
		SerialNumber:       p.rng.Uint64(),
		Subject:            cert.Name{CommonName: host},
		Issuer:             p.inter.Subject,
		DNSNames:           []string{host},
		NotBefore:          scanTime.AddDate(0, -6, 0),
		NotAfter:           scanTime.AddDate(0, 18, 0),
		PublicKey:          key,
		SignatureAlgorithm: cert.SHA256WithRSA,
	}
	if mutate != nil {
		mutate(l)
	}
	l.Sign(p.interKey.ID)
	return l
}

func (p *pki) verifier() *Verifier { return &Verifier{Store: p.store, Now: scanTime} }

func TestValidChain(t *testing.T) {
	p := newPKI(t, 1)
	leaf := p.leaf("www.agency.gov", nil)
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "www.agency.gov")
	if !res.Valid() {
		t.Fatalf("valid chain rejected: %v", res.Code)
	}
}

func TestEmptyChain(t *testing.T) {
	p := newPKI(t, 2)
	res := p.verifier().Verify(nil, "x.gov")
	if res.Code != EmptyChain {
		t.Errorf("Code = %v, want EmptyChain", res.Code)
	}
}

func TestHostnameMismatch(t *testing.T) {
	p := newPKI(t, 3)
	leaf := p.leaf("www.agency.gov", nil)
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "other.agency.gov")
	if res.Code != HostnameMismatch {
		t.Errorf("Code = %v, want HostnameMismatch", res.Code)
	}
}

func TestWildcardMisuse(t *testing.T) {
	// The Bangladesh case (§5.3.3): *.portal.gov.bd served on forms.gov.bd.
	p := newPKI(t, 4)
	leaf := p.leaf("ignored", func(c *cert.Certificate) {
		c.Subject.CommonName = "*.portal.gov.bd"
		c.DNSNames = []string{"*.portal.gov.bd"}
	})
	chain := []*cert.Certificate{leaf, p.inter}
	if res := p.verifier().Verify(chain, "forms.portal.gov.bd"); !res.Valid() {
		t.Errorf("in-zone wildcard use invalid: %v", res.Code)
	}
	if res := p.verifier().Verify(chain, "forms.gov.bd"); res.Code != HostnameMismatch {
		t.Errorf("out-of-zone wildcard = %v, want HostnameMismatch", res.Code)
	}
}

func TestExpiredLeaf(t *testing.T) {
	p := newPKI(t, 5)
	leaf := p.leaf("www.agency.gov", func(c *cert.Certificate) {
		c.NotBefore = scanTime.AddDate(-3, 0, 0)
		c.NotAfter = scanTime.AddDate(0, 0, -30)
	})
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "www.agency.gov")
	if res.Code != CertificateExpired {
		t.Errorf("Code = %v, want CertificateExpired", res.Code)
	}
}

func TestNotYetValidLeaf(t *testing.T) {
	p := newPKI(t, 6)
	leaf := p.leaf("www.agency.gov", func(c *cert.Certificate) {
		c.NotBefore = scanTime.AddDate(0, 1, 0)
		c.NotAfter = scanTime.AddDate(2, 0, 0)
	})
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "www.agency.gov")
	if res.Code != CertificateNotYetValid {
		t.Errorf("Code = %v, want CertificateNotYetValid", res.Code)
	}
}

func TestSelfSignedLeaf(t *testing.T) {
	p := newPKI(t, 7)
	key := cert.NewKey(p.rng, cert.KeyRSA, 2048)
	ss := &cert.Certificate{
		Subject:   cert.Name{CommonName: "localhost"},
		Issuer:    cert.Name{CommonName: "localhost"},
		DNSNames:  []string{"localhost"},
		NotBefore: scanTime.AddDate(-1, 0, 0),
		NotAfter:  scanTime.AddDate(10, 0, 0),
		PublicKey: key,
	}
	ss.Sign(key.ID)
	res := p.verifier().Verify([]*cert.Certificate{ss}, "site.gov.xx")
	// The hostname also mismatches, but the self-signed leaf outranks it.
	if res.Code != SelfSignedLeaf {
		t.Errorf("Code = %v, want SelfSignedLeaf", res.Code)
	}
}

func TestSelfSignedInChain(t *testing.T) {
	p := newPKI(t, 8)
	// Build an untrusted root and an intermediate under it.
	rogueKey := cert.NewKey(p.rng, cert.KeyRSA, 2048)
	rogue := &cert.Certificate{
		Subject: cert.Name{CommonName: "Rogue Root"}, Issuer: cert.Name{CommonName: "Rogue Root"},
		NotBefore: scanTime.AddDate(-2, 0, 0), NotAfter: scanTime.AddDate(8, 0, 0),
		PublicKey: rogueKey, IsCA: true,
	}
	rogue.Sign(rogueKey.ID)
	leafKey := cert.NewKey(p.rng, cert.KeyRSA, 2048)
	leaf := &cert.Certificate{
		Subject: cert.Name{CommonName: "site.gov.xx"}, Issuer: rogue.Subject,
		DNSNames:  []string{"site.gov.xx"},
		NotBefore: scanTime.AddDate(-1, 0, 0), NotAfter: scanTime.AddDate(1, 0, 0),
		PublicKey: leafKey,
	}
	leaf.Sign(rogueKey.ID)
	res := p.verifier().Verify([]*cert.Certificate{leaf, rogue}, "site.gov.xx")
	if res.Code != SelfSignedInChain {
		t.Errorf("Code = %v, want SelfSignedInChain", res.Code)
	}
}

func TestUnableToGetLocalIssuer(t *testing.T) {
	p := newPKI(t, 9)
	leaf := p.leaf("www.agency.gov", nil)
	// Server presents only the leaf; the intermediate is missing and the
	// leaf's issuer is not a root — OpenSSL error 20.
	res := p.verifier().Verify([]*cert.Certificate{leaf}, "www.agency.gov")
	if res.Code != UnableToGetLocalIssuer {
		t.Errorf("Code = %v, want UnableToGetLocalIssuer", res.Code)
	}
}

func TestSignatureFailure(t *testing.T) {
	p := newPKI(t, 10)
	leaf := p.leaf("www.agency.gov", nil)
	// Tamper with the leaf after signing: its issuer's key is present but
	// the signature no longer verifies.
	leaf.SerialNumber ^= 0xFF
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "www.agency.gov")
	if res.Code != SignatureFailure {
		t.Errorf("Code = %v, want SignatureFailure", res.Code)
	}
}

func TestExpiredIntermediate(t *testing.T) {
	p := newPKI(t, 11)
	p.inter.NotAfter = scanTime.AddDate(0, 0, -1)
	p.inter.Sign(p.rootKey.ID)
	leaf := p.leaf("www.agency.gov", nil)
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "www.agency.gov")
	if res.Code != CertificateExpired {
		t.Errorf("Code = %v, want CertificateExpired", res.Code)
	}
}

func TestExpiredBeatsHostnameMismatch(t *testing.T) {
	p := newPKI(t, 12)
	leaf := p.leaf("www.agency.gov", func(c *cert.Certificate) {
		c.NotAfter = scanTime.AddDate(0, 0, -10)
	})
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "unrelated.gov")
	if res.Code != CertificateExpired {
		t.Errorf("primary = %v, want CertificateExpired", res.Code)
	}
}

func TestEVDetection(t *testing.T) {
	p := newPKI(t, 13)
	p.store.TrustEVPolicy("2.16.840.1.114412.2.1") // DigiCert EV OID
	leaf := p.leaf("secure.agency.gov", func(c *cert.Certificate) {
		c.PolicyOIDs = []string{"2.16.840.1.114412.2.1"}
	})
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter}, "secure.agency.gov")
	if !res.Valid() {
		t.Errorf("EV chain rejected: %v", res.Code)
	}
	// EV is the trust store's verdict on the leaf's policy OIDs; an
	// untrusted policy OID must not grant it.
	if !p.store.IsTrustedEVPolicy(leaf.PolicyOIDs[0]) {
		t.Error("trusted EV policy OID not recognised")
	}
	if p.store.IsTrustedEVPolicy("1.2.3.4.5") {
		t.Error("untrusted policy OID granted EV")
	}
}

func TestRootPresentedInChain(t *testing.T) {
	p := newPKI(t, 14)
	leaf := p.leaf("www.agency.gov", nil)
	// Some servers send the full chain including the root; that is valid.
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.inter, p.root}, "www.agency.gov")
	if !res.Valid() {
		t.Errorf("chain with root rejected: %v", res.Code)
	}
}

func TestOutOfOrderChain(t *testing.T) {
	p := newPKI(t, 15)
	leaf := p.leaf("www.agency.gov", nil)
	// Intermediate and root swapped relative to canonical order.
	res := p.verifier().Verify([]*cert.Certificate{leaf, p.root, p.inter}, "www.agency.gov")
	if !res.Valid() {
		t.Errorf("out-of-order chain rejected: %v", res.Code)
	}
}

func TestUntrustedStoreRejectsKnownChain(t *testing.T) {
	p := newPKI(t, 16)
	leaf := p.leaf("www.agency.gov", nil)
	empty := truststore.New()
	v := &Verifier{Store: empty, Now: scanTime}
	res := v.Verify([]*cert.Certificate{leaf, p.inter}, "www.agency.gov")
	if res.Code != UnableToGetLocalIssuer {
		t.Errorf("Code = %v, want UnableToGetLocalIssuer with empty store", res.Code)
	}
}

func TestCodeStrings(t *testing.T) {
	if OK.String() != "ok" {
		t.Errorf("OK = %q", OK.String())
	}
	if UnableToGetLocalIssuer.String() != "unable to get local issuer certificate" {
		t.Errorf("UnableToGetLocalIssuer = %q", UnableToGetLocalIssuer.String())
	}
	if Code(99).String() == "" {
		t.Error("unknown code renders empty")
	}
}

func TestPropertyVerifyNeverPanicsAndIsDeterministic(t *testing.T) {
	// Random mutations of a real chain must classify deterministically and
	// never panic.
	p := newPKI(t, 99)
	base := p.leaf("www.agency.gov", nil)
	f := func(dropInter, tamper, wrongHost, expire bool, serialDelta uint8) bool {
		leaf := *base // base is never frozen, so the copy carries no caches
		if tamper {
			leaf.SerialNumber += uint64(serialDelta) + 1
		}
		if expire {
			leaf.NotAfter = scanTime.AddDate(0, 0, -1)
			leaf.Sign(p.interKey.ID)
		}
		chain := []*cert.Certificate{&leaf, p.inter}
		if dropInter {
			chain = chain[:1]
		}
		host := "www.agency.gov"
		if wrongHost {
			host = "other.example.gov"
		}
		v := p.verifier()
		r1 := v.Verify(chain, host)
		r2 := v.Verify(chain, host)
		if r1.Code != r2.Code {
			return false
		}
		// A pristine configuration must verify; any mutation must not.
		pristine := !dropInter && !tamper && !wrongHost && !expire
		return pristine == r1.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
