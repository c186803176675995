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
	s := New()
	ca := root(r, "Root A")
	if s.Contains(ca) {
		t.Fatal("empty store contains root")
	}
	s.AddRoot(ca)
	if !s.Contains(ca) {
		t.Fatal("store missing added root")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestFindIssuer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := New()
	ca := root(r, "Root A")
	s.AddRoot(ca)

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
	s := New()
	ca := root(r, "Root A")
	s.AddRoot(ca)
	leafKey := cert.NewKey(r, cert.KeyRSA, 2048)
	leaf := &cert.Certificate{Subject: cert.Name{CommonName: "x.gov"}, PublicKey: leafKey}
	leaf.Sign(ca.PublicKey.ID)
	leaf.SerialNumber++ // tamper after signing
	if _, ok := s.FindIssuer(leaf); ok {
		t.Fatal("FindIssuer accepted tampered certificate")
	}
}

func TestEVPolicies(t *testing.T) {
	s := New()
	if s.IsTrustedEVPolicy("2.23.140.1.1") {
		t.Fatal("empty store trusts EV policy")
	}
	s.TrustEVPolicy("2.23.140.1.1")
	if !s.IsTrustedEVPolicy("2.23.140.1.1") {
		t.Fatal("trusted EV policy not found")
	}
}
