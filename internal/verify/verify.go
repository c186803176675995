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
// cheap per-host hostname-match pass layered on top. HostnameMismatch has
// the lowest precedence, so the hostname pass runs only on a chain the
// structural pass accepted.
func (v *Verifier) Verify(chain []*cert.Certificate, hostname string) Result {
	if len(chain) == 0 {
		return Result{Code: EmptyChain}
	}
	code := v.structural(chain)
	if code == OK && chain[0].VerifyHostname(hostname) != nil {
		code = HostnameMismatch
	}
	return Result{Code: code}
}

// structural runs (or recalls) the chain-structural verification pass and
// returns its highest-precedence failure, or OK.
func (v *Verifier) structural(chain []*cert.Certificate) Code {
	var k cacheKey
	if v.Cache != nil {
		k = cacheKey{chain: chainDigest(chain), store: v.Store, now: v.Now.UnixNano()}
		if code, ok := v.Cache.lookup(k); ok {
			return code
		}
	}
	code := v.checkChain(chain)
	if v.Cache != nil {
		v.Cache.store(k, code)
	}
	return code
}

// checkChain builds the chain and then checks the validity windows of the
// certificates that participate in it. Every chain-construction failure
// outranks an expiry, and an expiry outranks a not-yet-valid certificate.
func (v *Verifier) checkChain(chain []*cert.Certificate) Code {
	depth, code := v.buildChain(chain)
	if code != OK {
		return code
	}
	for _, c := range chain[:min(depth+1, len(chain))] {
		if c.IsExpiredAt(v.Now) {
			return CertificateExpired
		}
		if c.IsNotYetValidAt(v.Now) {
			code = CertificateNotYetValid
		}
	}
	return code
}

// buildChain walks the presented chain from the leaf, resolving each
// certificate's issuer among the remaining presented certificates or the
// trust store. It returns the presented-chain index it could anchor, used
// to bound the expiry checks to certificates that actually participate in
// the chain, and the chain-construction failure, or OK.
func (v *Verifier) buildChain(chain []*cert.Certificate) (int, Code) {
	current := chain[0]
	idx := 0 // index of current within the presented chain
	used := make([]bool, len(chain))
	used[0] = true
	for {
		if current.SelfSigned() {
			if v.Store.Contains(current) {
				return idx, OK // anchored at a trusted root the server also presented
			}
			if idx > 0 {
				return idx, SelfSignedInChain
			}
			return idx, SelfSignedLeaf
		}
		if _, ok := v.Store.FindIssuer(current); ok {
			return idx, OK // issuer is a trusted root
		}
		nextIdx, sigBroken := findIssuerIn(current, chain, used)
		if sigBroken {
			return idx, SignatureFailure
		}
		if nextIdx < 0 {
			return idx, UnableToGetLocalIssuer
		}
		used[nextIdx] = true
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
