// Package truststore models the root-certificate trust stores the study
// compares (§3.2, §4.3): an Apple-shaped store (174 roots, 69 owners), a
// Microsoft-shaped store (402 roots, 133 owners) and a Mozilla NSS-shaped
// store (152 roots, 52 owners). The scan uses the most restrictive store —
// Apple's — mirroring the paper's conservative choice, which marks a small
// number of certificates invalid that specific browsers would accept.
package truststore

import "repro/internal/cert"

// Store is a set of trusted root certificates indexed by key identity.
type Store struct {
	byKey   map[cert.KeyID]*cert.Certificate
	evPolic map[string]bool
}

// New creates an empty store.
func New() *Store {
	return &Store{
		byKey:   make(map[cert.KeyID]*cert.Certificate),
		evPolic: make(map[string]bool),
	}
}

// AddRoot trusts a root certificate.
func (s *Store) AddRoot(root *cert.Certificate) {
	s.byKey[root.PublicKey.ID] = root
}

// TrustEVPolicy registers a policy OID as a trusted EV policy, mirroring
// Mozilla's certverifier ExtendedValidation list (§5.3).
func (s *Store) TrustEVPolicy(oid string) { s.evPolic[oid] = true }

// IsTrustedEVPolicy reports whether the policy OID grants EV treatment.
func (s *Store) IsTrustedEVPolicy(oid string) bool { return s.evPolic[oid] }

// FindIssuer returns the trusted root whose key signed c, if any.
func (s *Store) FindIssuer(c *cert.Certificate) (*cert.Certificate, bool) {
	root, ok := s.byKey[c.AuthorityKeyID]
	if !ok {
		return nil, false
	}
	if c.CheckSignatureFrom(root) != nil {
		return nil, false
	}
	return root, true
}

// Contains reports whether the exact certificate key is a trusted root.
func (s *Store) Contains(c *cert.Certificate) bool {
	r, ok := s.byKey[c.PublicKey.ID]
	return ok && r.Fingerprint() == c.Fingerprint()
}

// Len reports the number of trusted roots.
func (s *Store) Len() int { return len(s.byKey) }
