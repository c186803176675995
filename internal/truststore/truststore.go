// Package truststore models the root-certificate trust stores the study
// compares (§3.2, §4.3): an Apple-shaped store (174 roots, 69 owners), a
// Microsoft-shaped store (402 roots, 133 owners) and a Mozilla NSS-shaped
// store (152 roots, 52 owners). The scan uses the most restrictive store —
// Apple's — mirroring the paper's conservative choice, which marks a small
// number of certificates invalid that specific browsers would accept.
package truststore

import (
	"sort"

	"repro/internal/cert"
)

// Store is a set of trusted root certificates indexed by key identity.
type Store struct {
	name    string
	byKey   map[cert.KeyID]*cert.Certificate
	owners  map[string]bool
	evPolic map[string]bool
}

// New creates an empty store with the given display name.
func New(name string) *Store {
	return &Store{
		name:    name,
		byKey:   make(map[cert.KeyID]*cert.Certificate),
		owners:  make(map[string]bool),
		evPolic: make(map[string]bool),
	}
}

// Name returns the store's display name (e.g. "apple").
func (s *Store) Name() string { return s.name }

// AddRoot trusts a root certificate, attributed to an owner organization.
func (s *Store) AddRoot(root *cert.Certificate, owner string) {
	s.byKey[root.PublicKey.ID] = root
	if owner != "" {
		s.owners[owner] = true
	}
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

// OwnerCount reports the number of distinct root CA owners.
func (s *Store) OwnerCount() int { return len(s.owners) }

// Roots returns the trusted roots sorted by subject for stable iteration.
func (s *Store) Roots() []*cert.Certificate {
	out := make([]*cert.Certificate, 0, len(s.byKey))
	for _, c := range s.byKey {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Subject.String() < out[j].Subject.String()
	})
	return out
}

// Clone returns an independent copy of the store (used by the ablation
// benches that add or remove roots).
func (s *Store) Clone() *Store {
	c := New(s.name)
	for k, v := range s.byKey {
		c.byKey[k] = v
	}
	for k := range s.owners {
		c.owners[k] = true
	}
	for k := range s.evPolic {
		c.evPolic[k] = true
	}
	return c
}
