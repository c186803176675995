// Package ca models the certificate-authority ecosystem of the study: the
// issuing CAs that appear in the paper's figures (Let's Encrypt, DigiCert,
// Sectigo, GlobalSign, the South Korean NPKI sub-CAs, ...), their root
// hierarchies, their trust-store membership, and an issuance engine that
// mints leaf certificates with configurable lifetimes, keys, wildcard names
// and EV policies.
package ca

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/cert"
	"repro/internal/truststore"
)

// Profile describes one issuing CA.
type Profile struct {
	// Name is the issuer common name as it appears in certificates and in
	// the paper's figures (e.g. "Let's Encrypt Authority X3").
	Name string
	// Owner is the root CA owner organization.
	Owner string
	// Country is where the owner is registered (drives the §7.3.2
	// jurisdiction analysis).
	Country string
	// Free marks zero-cost issuance (Let's Encrypt, cPanel, CloudFlare).
	Free bool
	// EV marks CAs that issue Extended Validation certificates.
	EV bool
	// EVPolicyOID is the CA's EV policy identifier, when EV is true.
	EVPolicyOID string
	// SigAlg is the algorithm the CA signs leaves with.
	SigAlg cert.SignatureAlgorithm
	// KeyType and KeyBits describe the CA's own key.
	KeyType cert.KeyType
	KeyBits int
	// Distrusted marks CAs removed from all major trust stores (the NPKI
	// sub-CAs of §6.2/§6.3). Their chains fail with "unable to get local
	// issuer certificate".
	Distrusted bool
	// NotInApple marks CAs trusted by Microsoft and NSS but absent from
	// the Apple store — the §4.3 "invalid in our scans but valid on some
	// browsers" population.
	NotInApple bool
	// DefaultLifetime is the validity period of correctly issued leaves.
	DefaultLifetime time.Duration
}

// Authority is a Profile with minted root and intermediate certificates.
type Authority struct {
	Profile
	Root         *cert.Certificate
	Intermediate *cert.Certificate
	interKey     cert.KeyID
	serial       uint64
}

// Registry holds every authority, indexed by issuing-CA name.
type Registry struct {
	byName map[string]*Authority
	names  []string
}

// NewRegistry mints root/intermediate hierarchies for every built-in CA
// profile using the supplied deterministic source.
func NewRegistry(r *rand.Rand) *Registry {
	reg := &Registry{byName: make(map[string]*Authority)}
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, p := range BuiltinProfiles() {
		rootKey := cert.NewKey(r, p.KeyType, rootBits(p))
		root := &cert.Certificate{
			SerialNumber:       r.Uint64(),
			Subject:            cert.Name{CommonName: p.Owner + " Root CA", Organization: p.Owner, Country: p.Country},
			Issuer:             cert.Name{CommonName: p.Owner + " Root CA", Organization: p.Owner, Country: p.Country},
			NotBefore:          base,
			NotAfter:           base.AddDate(30, 0, 0),
			PublicKey:          rootKey,
			SignatureAlgorithm: p.SigAlg,
			IsCA:               true,
		}
		root.Sign(rootKey.ID)

		interKey := cert.NewKey(r, p.KeyType, p.KeyBits)
		inter := &cert.Certificate{
			SerialNumber:       r.Uint64(),
			Subject:            cert.Name{CommonName: p.Name, Organization: p.Owner, Country: p.Country},
			Issuer:             root.Subject,
			NotBefore:          base.AddDate(2, 0, 0),
			NotAfter:           base.AddDate(22, 0, 0),
			PublicKey:          interKey,
			SignatureAlgorithm: p.SigAlg,
			IsCA:               true,
		}
		inter.Sign(rootKey.ID)

		a := &Authority{
			Profile:      p,
			Root:         root,
			Intermediate: inter,
			interKey:     interKey.ID,
		}
		reg.byName[p.Name] = a
		reg.names = append(reg.names, p.Name)
	}
	sort.Strings(reg.names)
	return reg
}

// Lookup returns the authority with the given issuing-CA name.
func (r *Registry) Lookup(name string) (*Authority, bool) {
	a, ok := r.byName[name]
	return a, ok
}

// MustLookup is Lookup for names known to exist; it panics otherwise.
func (r *Registry) MustLookup(name string) *Authority {
	a, ok := r.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("ca: unknown authority %q", name))
	}
	return a
}

// Authorities returns every authority sorted by name.
func (r *Registry) Authorities() []*Authority {
	out := make([]*Authority, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.byName[n])
	}
	return out
}

// Request describes a certificate issuance.
type Request struct {
	// Hostnames become the SAN entries; the first is the subject CN.
	Hostnames []string
	// Key is the host's public key; mint one with cert.NewKey.
	Key cert.PublicKey
	// NotBefore is the issuance time.
	NotBefore time.Time
	// Lifetime overrides the CA's default validity period when non-zero.
	// The misconfigured 10/20/30/50/100-year certificates of §5.3.1 are
	// produced through this override.
	Lifetime time.Duration
	// EV requests an Extended Validation certificate; ignored unless the
	// CA issues EV.
	EV bool
	// Organization is embedded in the subject for EV certificates.
	Organization string
	// Country is the subject country.
	Country string
	// Serial, when non-zero, overrides the authority's serial counter.
	// Parallel world builders partition the serial space per worker so
	// issuance needs no lock; zero keeps the counter behaviour.
	Serial uint64
}

// Issue mints a leaf under the authority and returns the served chain
// (leaf, intermediate). The authority's serial counter guarantees unique
// serial numbers per CA. The request's Hostnames slice is retained as the
// leaf's SAN list; callers must not modify it afterwards.
func (a *Authority) Issue(req Request) []*cert.Certificate {
	if len(req.Hostnames) == 0 {
		panic("ca: issuance request without hostnames")
	}
	lifetime := req.Lifetime
	if lifetime == 0 {
		lifetime = a.DefaultLifetime
	}
	serial := req.Serial
	if serial == 0 {
		a.serial++
		serial = a.serial
	}
	leaf := &cert.Certificate{
		SerialNumber: serial,
		Subject: cert.Name{
			CommonName:   req.Hostnames[0],
			Organization: req.Organization,
			Country:      req.Country,
		},
		Issuer:             a.Intermediate.Subject,
		DNSNames:           req.Hostnames,
		NotBefore:          req.NotBefore,
		NotAfter:           req.NotBefore.Add(lifetime),
		PublicKey:          req.Key,
		SignatureAlgorithm: a.SigAlg,
	}
	if req.EV && a.EV {
		leaf.PolicyOIDs = []string{a.EVPolicyOID}
	}
	leaf.Sign(a.interKey)
	return []*cert.Certificate{leaf, a.Intermediate}
}

// SelfSigned mints a self-signed certificate outside any CA hierarchy —
// the "localhost" style certificates behind §5.3.3's most-reused chains.
// The hostnames slice is retained as the SAN list; callers must not modify
// it afterwards.
func SelfSigned(key cert.PublicKey, hostnames []string, notBefore time.Time, lifetime time.Duration, alg cert.SignatureAlgorithm) *cert.Certificate {
	cn := "localhost"
	if len(hostnames) > 0 {
		cn = hostnames[0]
	}
	c := &cert.Certificate{
		Subject:            cert.Name{CommonName: cn},
		Issuer:             cert.Name{CommonName: cn},
		DNSNames:           hostnames,
		NotBefore:          notBefore,
		NotAfter:           notBefore.Add(lifetime),
		PublicKey:          key,
		SignatureAlgorithm: alg,
	}
	c.Sign(key.ID)
	return c
}

func rootBits(p Profile) int {
	if p.KeyType == cert.KeyECDSA {
		return 384
	}
	return 4096
}

// Store construction ---------------------------------------------------

// StoreCounts fixes the sizes of the three modeled trust stores to the
// paper's measurements (§3.2).
type StoreCounts struct {
	Roots  int
	Owners int
}

// Paper-measured trust store sizes.
var (
	AppleCounts     = StoreCounts{Roots: 174, Owners: 69}
	MicrosoftCounts = StoreCounts{Roots: 402, Owners: 133}
	NSSCounts       = StoreCounts{Roots: 152, Owners: 52}
)

// BuildStore assembles a trust store containing every non-distrusted
// builtin authority's root plus deterministic filler roots to reach the
// paper-measured totals. EV policy OIDs of EV-issuing authorities are
// trusted, mirroring Mozilla's certverifier list.
func (r *Registry) BuildStore(name string, counts StoreCounts, rng *rand.Rand) *truststore.Store {
	s := truststore.New()
	owners := map[string]bool{}
	for _, a := range r.Authorities() {
		if a.Distrusted {
			continue
		}
		if a.NotInApple && name == "apple" {
			continue
		}
		s.AddRoot(a.Root)
		owners[a.Owner] = true
		if a.EV {
			s.TrustEVPolicy(a.EVPolicyOID)
		}
	}
	fillerOwners := counts.Owners - len(owners)
	if fillerOwners < 1 {
		fillerOwners = 1
	}
	for i := 0; s.Len() < counts.Roots; i++ {
		ownerName := name + " filler owner " + strconv.Itoa(i%fillerOwners)
		key := cert.NewKey(rng, cert.KeyRSA, 4096)
		cn := name + " Filler Root " + strconv.Itoa(i)
		root := &cert.Certificate{
			SerialNumber:       rng.Uint64(),
			Subject:            cert.Name{CommonName: cn, Organization: ownerName},
			Issuer:             cert.Name{CommonName: cn, Organization: ownerName},
			NotBefore:          time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:           time.Date(2045, 1, 1, 0, 0, 0, 0, time.UTC),
			PublicKey:          key,
			SignatureAlgorithm: cert.SHA256WithRSA,
			IsCA:               true,
		}
		root.Sign(key.ID)
		s.AddRoot(root)
	}
	return s
}

// BuildDefaultStores creates the three paper trust stores.
func (r *Registry) BuildDefaultStores(rng *rand.Rand) map[string]*truststore.Store {
	return map[string]*truststore.Store{
		"apple":     r.BuildStore("apple", AppleCounts, rng),
		"microsoft": r.BuildStore("microsoft", MicrosoftCounts, rng),
		"nss":       r.BuildStore("nss", NSSCounts, rng),
	}
}
