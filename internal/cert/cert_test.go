package cert

import (
	"math/rand"
	"testing"
	"time"
)

var (
	t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
)

func testCert(r *rand.Rand) *Certificate {
	key := NewKey(r, KeyRSA, 2048)
	c := &Certificate{
		SerialNumber:       r.Uint64(),
		Subject:            Name{CommonName: "www.example.gov", Organization: "Example Agency", Country: "US"},
		Issuer:             Name{CommonName: "Test CA", Organization: "Test Trust Services", Country: "US"},
		DNSNames:           []string{"www.example.gov", "example.gov"},
		NotBefore:          t0,
		NotAfter:           t1,
		PublicKey:          key,
		SignatureAlgorithm: SHA256WithRSA,
	}
	return c
}

func TestSignAndVerifyFromIssuer(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	caKey := NewKey(r, KeyRSA, 4096)
	caCert := &Certificate{
		Subject:            Name{CommonName: "Test CA"},
		Issuer:             Name{CommonName: "Test CA"},
		NotBefore:          t0,
		NotAfter:           t1.AddDate(10, 0, 0),
		PublicKey:          caKey,
		SignatureAlgorithm: SHA256WithRSA,
		IsCA:               true,
	}
	caCert.Sign(caKey.ID)

	leaf := testCert(r)
	leaf.Sign(caKey.ID)

	if err := leaf.CheckSignatureFrom(caCert); err != nil {
		t.Fatalf("CheckSignatureFrom = %v", err)
	}
	if !caCert.SelfSigned() {
		t.Error("CA cert should report self-signed")
	}
	if leaf.SelfSigned() {
		t.Error("leaf should not report self-signed")
	}
}

func TestSignatureBreaksOnTamper(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	caKey := NewKey(r, KeyECDSA, 256)
	ca := &Certificate{Subject: Name{CommonName: "CA"}, Issuer: Name{CommonName: "CA"},
		PublicKey: caKey, IsCA: true, NotBefore: t0, NotAfter: t1}
	ca.Sign(caKey.ID)
	leaf := testCert(r)
	leaf.Sign(caKey.ID)

	leaf.DNSNames = append(leaf.DNSNames, "evil.example.com")
	if err := leaf.CheckSignatureFrom(ca); err == nil {
		t.Fatal("tampered certificate still verifies")
	}
}

func TestSignatureWrongIssuer(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	k1 := NewKey(r, KeyRSA, 2048)
	k2 := NewKey(r, KeyRSA, 2048)
	ca1 := &Certificate{Subject: Name{CommonName: "CA1"}, Issuer: Name{CommonName: "CA1"}, PublicKey: k1, IsCA: true}
	ca2 := &Certificate{Subject: Name{CommonName: "CA2"}, Issuer: Name{CommonName: "CA2"}, PublicKey: k2, IsCA: true}
	ca1.Sign(k1.ID)
	ca2.Sign(k2.ID)
	leaf := testCert(r)
	leaf.Sign(k1.ID)
	if err := leaf.CheckSignatureFrom(ca2); err == nil {
		t.Fatal("leaf verified against wrong issuer")
	}
	if err := leaf.CheckSignatureFrom(ca1); err != nil {
		t.Fatalf("leaf failed against right issuer: %v", err)
	}
}

func TestCheckSignatureFromNonCA(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := testCert(r)
	b := testCert(r)
	a.Sign(b.PublicKey.ID)
	if err := a.CheckSignatureFrom(b); err != ErrNotCA {
		t.Fatalf("err = %v, want ErrNotCA", err)
	}
}

func TestVerifyHostnameExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := testCert(r)
	if err := c.VerifyHostname("www.example.gov"); err != nil {
		t.Errorf("exact match failed: %v", err)
	}
	if err := c.VerifyHostname("EXAMPLE.GOV"); err != nil {
		t.Errorf("case-insensitive match failed: %v", err)
	}
	if err := c.VerifyHostname("other.example.gov"); err == nil {
		t.Error("mismatched host verified")
	}
}

func TestVerifyHostnameWildcard(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := testCert(r)
	c.DNSNames = []string{"*.portal.gov.bd"}
	if err := c.VerifyHostname("forms.portal.gov.bd"); err != nil {
		t.Errorf("wildcard one-label match failed: %v", err)
	}
	// The Bangladesh misuse case from §5.3.3: *.portal.gov.bd used on
	// sites under *.gov.bd must mismatch.
	if err := c.VerifyHostname("dhaka.gov.bd"); err == nil {
		t.Error("wildcard matched a different zone")
	}
	if err := c.VerifyHostname("a.b.portal.gov.bd"); err == nil {
		t.Error("wildcard matched two labels")
	}
	if err := c.VerifyHostname("portal.gov.bd"); err == nil {
		t.Error("wildcard matched zero labels")
	}
}

func TestVerifyHostnameCNFallback(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := testCert(r)
	c.DNSNames = nil
	if err := c.VerifyHostname("www.example.gov"); err != nil {
		t.Errorf("CN fallback failed: %v", err)
	}
	c.Subject.CommonName = ""
	if err := c.VerifyHostname("www.example.gov"); err != ErrNoHostname {
		t.Errorf("err = %v, want ErrNoHostname", err)
	}
}

func TestHostnameErrorMessage(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := testCert(r)
	err := c.VerifyHostname("nope.gov")
	if err == nil {
		t.Fatal("expected error")
	}
	var he HostnameError
	if he, _ = err.(HostnameError); he.Host != "nope.gov" {
		t.Errorf("HostnameError host = %q", he.Host)
	}
}

func TestExpiryChecks(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c := testCert(r)
	if c.IsExpiredAt(t0.AddDate(1, 0, 0)) {
		t.Error("expired inside window")
	}
	if !c.IsExpiredAt(t1.AddDate(0, 0, 1)) {
		t.Error("not expired after NotAfter")
	}
	if !c.IsNotYetValidAt(t0.AddDate(0, 0, -1)) {
		t.Error("valid before NotBefore")
	}
	if got := c.ValidityDays(); got != 731 { // 2020 is a leap year
		t.Errorf("ValidityDays = %d, want 731", got)
	}
}

func TestHasWildcard(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	c := testCert(r)
	if c.HasWildcard() {
		t.Error("non-wildcard cert reports wildcard")
	}
	c.DNSNames = []string{"a.gov", "*.b.gov"}
	if !c.HasWildcard() {
		t.Error("wildcard SAN not detected")
	}
	c.DNSNames = nil
	c.Subject.CommonName = "*.c.gov"
	if !c.HasWildcard() {
		t.Error("wildcard CN not detected")
	}
}

func TestFingerprintStability(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := testCert(r)
	c.Sign(c.PublicKey.ID)
	f1 := c.Fingerprint()
	c2 := *c
	if f2 := c2.Fingerprint(); f1 != f2 {
		t.Error("copy fingerprint differs")
	}
	c2.SerialNumber++
	if c2.Fingerprint() == f1 {
		t.Error("distinct certificates share a fingerprint")
	}
}

func TestNameString(t *testing.T) {
	n := Name{CommonName: "Let's Encrypt Authority X3", Organization: "Let's Encrypt", Country: "US"}
	want := "C=US, O=Let's Encrypt, CN=Let's Encrypt Authority X3"
	if got := n.String(); got != want {
		t.Errorf("Name.String() = %q, want %q", got, want)
	}
}

func TestSignatureAlgorithmProperties(t *testing.T) {
	if !MD5WithRSA.IsWeak() || !SHA1WithRSA.IsWeak() {
		t.Error("MD5/SHA1 not flagged weak")
	}
	if SHA256WithRSA.IsWeak() {
		t.Error("SHA256 flagged weak")
	}
	if !ECDSAWithSHA384.IsECDSA() || SHA256WithRSA.IsECDSA() {
		t.Error("IsECDSA misclassifies")
	}
	if MD5WithRSA.String() != "md5WithRSAEncryption" {
		t.Errorf("alg name = %q", MD5WithRSA.String())
	}
}

func TestKeyLabels(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	k := NewKey(r, KeyRSA, 2048)
	if k.Label() != "RSA-2048" {
		t.Errorf("label = %q", k.Label())
	}
	e := NewKey(r, KeyECDSA, 256)
	if e.Label() != "EC-256" {
		t.Errorf("label = %q", e.Label())
	}
	if k.ID == e.ID {
		t.Error("two fresh keys share an ID")
	}
	if k.ID == (KeyID{}) {
		t.Error("fresh key has zero ID")
	}
}
