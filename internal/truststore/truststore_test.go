package truststore

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
)

func root(r *rand.Rand, cn string) *cert.Certificate {
	key := cert.NewKey(r, cert.KeyRSA, 4096)
	c := &cert.Certificate{
		Subject:   cert.Name{CommonName: cn},
		Issuer:    cert.Name{CommonName: cn},
		NotBefore: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC),
		PublicKey: key,
		IsCA:      true,
	}
	c.Sign(key.ID)
	return c
}

func TestAddContainsRemove(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := New("apple")
	ca := root(r, "Root A")
	if s.Contains(ca) {
		t.Fatal("empty store contains root")
	}
	s.AddRoot(ca, "Owner A")
	if !s.Contains(ca) {
		t.Fatal("store missing added root")
	}
	if s.Len() != 1 || s.OwnerCount() != 1 {
		t.Errorf("Len=%d OwnerCount=%d", s.Len(), s.OwnerCount())
	}
}

func TestFindIssuer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := New("test")
	ca := root(r, "Root A")
	s.AddRoot(ca, "Owner A")

	leafKey := cert.NewKey(r, cert.KeyRSA, 2048)
	leaf := &cert.Certificate{
		Subject:   cert.Name{CommonName: "x.gov"},
		Issuer:    ca.Subject,
		PublicKey: leafKey,
	}
	leaf.Sign(ca.PublicKey.ID)
	got, ok := s.FindIssuer(leaf)
	if !ok || got != ca {
		t.Fatalf("FindIssuer = %v,%v", got, ok)
	}

	// A leaf signed by an unknown key resolves to nothing.
	other := cert.NewKey(r, cert.KeyRSA, 2048)
	leaf2 := &cert.Certificate{Subject: cert.Name{CommonName: "y.gov"}, PublicKey: leafKey}
	leaf2.Sign(other.ID)
	if _, ok := s.FindIssuer(leaf2); ok {
		t.Fatal("FindIssuer matched unknown key")
	}
}

func TestFindIssuerRejectsForgedSignature(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := New("test")
	ca := root(r, "Root A")
	s.AddRoot(ca, "Owner A")
	leafKey := cert.NewKey(r, cert.KeyRSA, 2048)
	leaf := &cert.Certificate{Subject: cert.Name{CommonName: "x.gov"}, PublicKey: leafKey}
	leaf.Sign(ca.PublicKey.ID)
	leaf.SerialNumber++ // tamper after signing
	if _, ok := s.FindIssuer(leaf); ok {
		t.Fatal("FindIssuer accepted tampered certificate")
	}
}

func TestOwnerCountDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := New("test")
	s.AddRoot(root(r, "A1"), "Owner A")
	s.AddRoot(root(r, "A2"), "Owner A")
	s.AddRoot(root(r, "B1"), "Owner B")
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.OwnerCount() != 2 {
		t.Errorf("OwnerCount = %d, want 2", s.OwnerCount())
	}
}

func TestEVPolicies(t *testing.T) {
	s := New("test")
	if s.IsTrustedEVPolicy("2.23.140.1.1") {
		t.Fatal("empty store trusts EV policy")
	}
	s.TrustEVPolicy("2.23.140.1.1")
	if !s.IsTrustedEVPolicy("2.23.140.1.1") {
		t.Fatal("trusted EV policy not found")
	}
}

func TestRootsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := New("test")
	s.AddRoot(root(r, "Zulu Root"), "z")
	s.AddRoot(root(r, "Alpha Root"), "a")
	s.AddRoot(root(r, "Mike Root"), "m")
	roots := s.Roots()
	for i := 1; i < len(roots); i++ {
		if roots[i-1].Subject.String() > roots[i].Subject.String() {
			t.Fatalf("roots unsorted: %q > %q", roots[i-1].Subject, roots[i].Subject)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s := New("apple")
	a := root(r, "A")
	s.AddRoot(a, "Owner A")
	s.TrustEVPolicy("1.2.3")
	c := s.Clone()
	if c.Name() != "apple" || c.Len() != 1 || !c.IsTrustedEVPolicy("1.2.3") {
		t.Fatal("clone incomplete")
	}
	b := root(r, "B")
	c.AddRoot(b, "Owner B")
	c.TrustEVPolicy("4.5.6")
	if s.Contains(b) || s.Len() != 1 || s.OwnerCount() != 1 || s.IsTrustedEVPolicy("4.5.6") {
		t.Fatal("clone mutation leaked into original")
	}
}
