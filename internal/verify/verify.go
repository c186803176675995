// Package verify implements certificate-chain validation with OpenSSL's
// error taxonomy, which the paper's Table 2 is built on: hostname mismatch,
// unable to get local issuer certificate, self-signed certificate (leaf or
// in chain), and certificate expiry. Validation is performed against a
// truststore.Store at a fixed scan time.
package verify

import (
	"fmt"
	"time"

	"repro/internal/cert"
	"repro/internal/truststore"
)

// Code identifies the primary validation outcome.
type Code int

// Validation outcomes, ordered by reporting precedence: when multiple
// problems exist, the lowest-numbered non-OK code wins, mirroring how
// OpenSSL surfaces the first failure it encounters while building the chain.
const (
	// OK means the full chain validates and the hostname matches.
	OK Code = iota
	// EmptyChain means the server sent no certificates.
	EmptyChain
	// SelfSignedLeaf is OpenSSL's "self signed certificate" (error 18).
	SelfSignedLeaf
	// SelfSignedInChain is "self signed certificate in certificate chain"
	// (error 19).
	SelfSignedInChain
	// UnableToGetLocalIssuer is "unable to get local issuer certificate"
	// (error 20): the chain does not terminate at a trusted root (§3.1).
	UnableToGetLocalIssuer
	// SignatureFailure means a certificate in the chain does not verify
	// against its issuer's key.
	SignatureFailure
	// CertificateExpired is "certificate has expired" (error 10).
	CertificateExpired
	// CertificateNotYetValid is "certificate is not yet valid" (error 9).
	CertificateNotYetValid
	// HostnameMismatch means the leaf does not cover the queried hostname —
	// the leading cause of invalidity in the study (36.6%).
	HostnameMismatch
)

// String returns the OpenSSL-style description of the code.
func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case EmptyChain:
		return "empty certificate chain"
	case SelfSignedLeaf:
		return "self signed certificate"
	case SelfSignedInChain:
		return "self signed certificate in certificate chain"
	case UnableToGetLocalIssuer:
		return "unable to get local issuer certificate"
	case SignatureFailure:
		return "certificate signature failure"
	case CertificateExpired:
		return "certificate has expired"
	case CertificateNotYetValid:
		return "certificate is not yet valid"
	case HostnameMismatch:
		return "hostname mismatch"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// Result is the outcome of validating one presented chain.
type Result struct {
	// Code is the primary outcome (highest-precedence failure, or OK).
	Code Code
	// Errors lists every failure observed, including the primary one.
	Errors []Code
	// Depth is the 0-based chain depth at which the primary failure
	// occurred (0 = leaf), or the validated chain length when OK.
	Depth int
	// EV reports whether the validated chain carries a trusted EV policy.
	// Only meaningful when Code == OK.
	EV bool
	// Detail is a human-readable elaboration of the primary failure.
	Detail string
}

// Valid reports whether the chain validated completely.
func (r Result) Valid() bool { return r.Code == OK }

// Verifier validates chains against a trust store.
type Verifier struct {
	// Store is the root trust store; the paper uses the Apple-shaped
	// store as the most restrictive option (§4.3).
	Store *truststore.Store
	// Now is the scan time certificates are checked against.
	Now time.Time
	// Cache, when non-nil, memoizes the chain-structural pass (issuer walk,
	// signatures, validity windows, trust anchoring) across hosts that
	// present the same chain. Results are identical with and without it.
	Cache *Cache
}

// Verify validates the presented chain (leaf first) for the given hostname.
// Verification runs in two passes: a chain-structural pass that depends
// only on (chain, store, scan time) and is memoizable via Cache, and a
// cheap per-host hostname-match pass layered on top.
func (v *Verifier) Verify(chain []*cert.Certificate, hostname string) Result {
	if len(chain) == 0 {
		return Result{Code: EmptyChain, Errors: []Code{EmptyChain}, Detail: "server presented no certificates"}
	}
	leaf := chain[0]

	found, ev := v.structural(chain)
	if err := leaf.VerifyHostname(hostname); err != nil {
		found = append(found, failure{HostnameMismatch, 0, err.Error()})
	}

	if len(found) == 0 {
		return Result{
			Code:  OK,
			Depth: len(chain),
			EV:    ev,
		}
	}
	primary := found[0]
	for _, f := range found[1:] {
		if f.code < primary.code {
			primary = f
		}
	}
	res := Result{Code: primary.code, Depth: primary.depth, Detail: primary.detail}
	seen := map[Code]bool{}
	for _, f := range found {
		if !seen[f.code] {
			seen[f.code] = true
			res.Errors = append(res.Errors, f.code)
		}
	}
	return res
}

// structural runs (or recalls) the chain-structural verification pass. The
// returned slice has its capacity clamped to its length, so the hostname
// pass can append without ever mutating a cached entry shared with other
// goroutines.
func (v *Verifier) structural(chain []*cert.Certificate) ([]failure, bool) {
	var k cacheKey
	if v.Cache != nil {
		k = cacheKey{chain: chainDigest(chain), store: v.Store, now: v.Now.UnixNano()}
		if e, ok := v.Cache.lookup(k); ok {
			return e.found, e.ev
		}
	}

	var found []failure
	depth := v.buildChain(chain, &found)
	for i, c := range chain[:min(depth+1, len(chain))] {
		if c.IsExpiredAt(v.Now) {
			found = append(found, failure{CertificateExpired, i,
				fmt.Sprintf("certificate at depth %d expired %s", i, c.NotAfter.Format("2006-01-02"))})
		} else if c.IsNotYetValidAt(v.Now) {
			found = append(found, failure{CertificateNotYetValid, i,
				fmt.Sprintf("certificate at depth %d not valid before %s", i, c.NotBefore.Format("2006-01-02"))})
		}
	}
	found = found[:len(found):len(found)]
	ev := v.isEV(chain[0])
	if v.Cache != nil {
		v.Cache.store(k, &cacheEntry{found: found, ev: ev})
	}
	return found, ev
}

type failure struct {
	code   Code
	depth  int
	detail string
}

// buildChain walks the presented chain from the leaf, resolving each
// certificate's issuer among the remaining presented certificates or the
// trust store, and records chain-construction failures. It returns the
// number of presented-chain hops it could anchor, used to bound the expiry
// checks to certificates that actually participate in the chain.
func (v *Verifier) buildChain(chain []*cert.Certificate, found *[]failure) int {
	current := chain[0]
	idx := 0   // index of current within the presented chain
	depth := 0 // number of hops walked from the leaf
	used := make([]bool, len(chain))
	used[0] = true
	for {
		if current.SelfSigned() {
			if v.Store.Contains(current) {
				return idx // anchored at a trusted root the server also presented
			}
			code := SelfSignedLeaf
			detail := "leaf certificate is self-signed and untrusted"
			if depth > 0 {
				code = SelfSignedInChain
				detail = fmt.Sprintf("self-signed certificate at chain depth %d", depth)
			}
			*found = append(*found, failure{code, depth, detail})
			return idx
		}
		if _, ok := v.Store.FindIssuer(current); ok {
			return idx // issuer is a trusted root
		}
		nextIdx, sigBroken := findIssuerIn(current, chain, used)
		if sigBroken {
			*found = append(*found, failure{SignatureFailure, depth,
				fmt.Sprintf("issuer key for %q found but signature does not verify", current.Subject.CommonName)})
			return idx
		}
		if nextIdx < 0 {
			*found = append(*found, failure{UnableToGetLocalIssuer, depth,
				fmt.Sprintf("no issuer for %q in presented chain or trust store", current.Subject.CommonName)})
			return idx
		}
		used[nextIdx] = true
		depth++
		idx = nextIdx
		current = chain[nextIdx]
	}
}

// findIssuerIn locates an unused presented CA certificate whose key issued
// c. It returns the candidate's index, or -1 when none matches; sigBroken is
// set when a candidate held the right key but the signature failed to verify
// (OpenSSL's "certificate signature failure").
func findIssuerIn(c *cert.Certificate, chain []*cert.Certificate, used []bool) (idx int, sigBroken bool) {
	sawKeyMatch := false
	for i, cand := range chain {
		if used[i] || !cand.IsCA {
			continue
		}
		if cand.PublicKey.ID != c.AuthorityKeyID {
			continue
		}
		if c.CheckSignatureFrom(cand) == nil {
			return i, false
		}
		sawKeyMatch = true
	}
	return -1, sawKeyMatch
}

func (v *Verifier) isEV(leaf *cert.Certificate) bool {
	for _, oid := range leaf.PolicyOIDs {
		if v.Store.IsTrustedEVPolicy(oid) {
			return true
		}
	}
	return false
}
