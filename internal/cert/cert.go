// Package cert implements the certificate model for the study: an X.509-like
// certificate with subject/issuer names, subject alternative names, validity
// window, public-key metadata, signature algorithm and EV policy OIDs, plus a
// compact binary wire encoding used by the simulated TLS handshake.
//
// Signatures are simulated: a certificate's signature is a keyed digest of
// the to-be-signed bytes under the issuer's key identity. This preserves the
// structural properties chain validation depends on (a certificate verifies
// only against the key that issued it; tampering breaks the signature)
// without carrying real cryptographic weight, which the measurement pipeline
// does not need. The substitution is documented in DESIGN.md.
package cert

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"time"
)

// KeyType identifies the public-key algorithm of a host or CA key.
type KeyType uint8

// Supported key types.
const (
	KeyRSA KeyType = iota + 1
	KeyECDSA
)

// String returns the conventional name of the key type.
func (k KeyType) String() string {
	switch k {
	case KeyRSA:
		return "RSA"
	case KeyECDSA:
		return "EC"
	default:
		return fmt.Sprintf("KeyType(%d)", uint8(k))
	}
}

// KeyID is the fingerprint identifying a key pair. Two certificates with the
// same KeyID share the same underlying key pair — the property behind the
// §5.3.3 key-reuse analysis.
type KeyID [16]byte

// String renders the fingerprint in hex.
func (id KeyID) String() string { return fmt.Sprintf("%x", id[:]) }

// PublicKey carries the key metadata the study analyzes (Figure 4/9/12).
type PublicKey struct {
	Type KeyType
	// Bits is the key size: 1024/2048/3248/4096/8192 for RSA,
	// 256/384/521 for EC.
	Bits int
	// ID identifies the key pair.
	ID KeyID
}

// Label renders the key as the paper's figures label it, e.g. "RSA-2048".
func (k PublicKey) Label() string { return fmt.Sprintf("%s-%d", k.Type, k.Bits) }

// SignatureAlgorithm identifies the CA's signing algorithm.
type SignatureAlgorithm uint8

// Signature algorithms observed in the study.
const (
	MD5WithRSA SignatureAlgorithm = iota + 1
	SHA1WithRSA
	SHA256WithRSA
	SHA384WithRSA
	SHA512WithRSA
	SHA256WithRSAPSS
	ECDSAWithSHA256
	ECDSAWithSHA384
	ECDSAWithSHA512
)

var sigAlgNames = map[SignatureAlgorithm]string{
	MD5WithRSA:       "md5WithRSAEncryption",
	SHA1WithRSA:      "sha1WithRSAEncryption",
	SHA256WithRSA:    "sha256WithRSAEncryption",
	SHA384WithRSA:    "sha384WithRSAEncryption",
	SHA512WithRSA:    "sha512WithRSAEncryption",
	SHA256WithRSAPSS: "rsassaPss",
	ECDSAWithSHA256:  "ecdsa-with-SHA256",
	ECDSAWithSHA384:  "ecdsa-with-SHA384",
	ECDSAWithSHA512:  "ecdsa-with-SHA512",
}

// String returns the OpenSSL-style algorithm name.
func (a SignatureAlgorithm) String() string {
	if s, ok := sigAlgNames[a]; ok {
		return s
	}
	return fmt.Sprintf("SignatureAlgorithm(%d)", uint8(a))
}

// IsWeak reports whether the algorithm is considered broken (MD5, SHA1).
func (a SignatureAlgorithm) IsWeak() bool {
	return a == MD5WithRSA || a == SHA1WithRSA
}

// IsECDSA reports whether the signature uses elliptic-curve keys.
func (a SignatureAlgorithm) IsECDSA() bool {
	return a == ECDSAWithSHA256 || a == ECDSAWithSHA384 || a == ECDSAWithSHA512
}

// Name is a distinguished name, reduced to the attributes the study uses.
type Name struct {
	CommonName   string
	Organization string
	Country      string
}

// String renders the name in OpenSSL one-line form.
func (n Name) String() string {
	var parts []string
	if n.Country != "" {
		parts = append(parts, "C="+n.Country)
	}
	if n.Organization != "" {
		parts = append(parts, "O="+n.Organization)
	}
	if n.CommonName != "" {
		parts = append(parts, "CN="+n.CommonName)
	}
	return strings.Join(parts, ", ")
}

// Certificate is one certificate in a chain.
type Certificate struct {
	SerialNumber uint64
	Subject      Name
	Issuer       Name
	// DNSNames are subject alternative names; entries may be wildcards.
	DNSNames  []string
	NotBefore time.Time
	NotAfter  time.Time
	PublicKey PublicKey
	// SignatureAlgorithm is the algorithm the issuer signed with.
	SignatureAlgorithm SignatureAlgorithm
	// IsCA marks certificates usable as issuers.
	IsCA bool
	// PolicyOIDs carries certificate policies; EV issuance includes the
	// issuer's EV policy OID, checked against the trusted EV registry.
	PolicyOIDs []string
	// AuthorityKeyID identifies the key that signed this certificate.
	AuthorityKeyID KeyID
	// Signature binds the TBS bytes to the issuing key.
	Signature [32]byte

	// Frozen caches of the wire encoding, TBS bytes and fingerprint,
	// populated by Freeze (or by ParseChain, whose input already carries the
	// encoding). Nil while the certificate is still being built; Sign
	// resets them. Once set they are read-only, so a frozen certificate
	// is safe to share across goroutines.
	enc []byte
	tbs []byte
	fp  *[32]byte
}

// Freeze precomputes the certificate's wire encoding, TBS bytes and
// fingerprint so Encode, Fingerprint and signature checks stop
// re-serializing on every call. Call it once, from a single goroutine,
// after the certificate reaches its final form; mutating an exported field
// afterwards leaves the caches stale (Sign resets them).
func (c *Certificate) Freeze() {
	if c.enc != nil {
		return
	}
	tbs := encodeBody(c, false)
	// The wire form is tbs ++ signature; appending in place shares one
	// backing array between both cached views.
	enc := append(tbs, c.Signature[:]...)
	fp := sha256.Sum256(enc)
	c.tbs, c.enc, c.fp = enc[:len(tbs):len(tbs)], enc, &fp
}

// Errors returned by signature and hostname verification.
var (
	ErrSignatureMismatch = errors.New("cert: signature does not verify against issuer key")
	ErrNotCA             = errors.New("cert: issuer certificate is not a CA")
	ErrNoHostname        = errors.New("cert: certificate contains no host names")
)

// tbsBytes serializes the to-be-signed portion of the certificate
// (encodeBody never reads the Signature field when withSig is false).
func (c *Certificate) tbsBytes() []byte {
	if c.tbs != nil {
		return c.tbs
	}
	return encodeBody(c, false)
}

// Sign computes the certificate signature under the given issuing key.
// For self-signed certificates, pass the certificate's own key ID.
func (c *Certificate) Sign(issuerKey KeyID) {
	c.enc, c.tbs, c.fp = nil, nil, nil
	c.AuthorityKeyID = issuerKey
	c.Signature = computeSignature(c.tbsBytes(), issuerKey, c.SignatureAlgorithm)
}

func computeSignature(tbs []byte, key KeyID, alg SignatureAlgorithm) [32]byte {
	h := sha256.New()
	h.Write([]byte{'s', 'i', 'g', byte(alg)})
	h.Write(key[:])
	h.Write(tbs)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// CheckSignatureFrom verifies that parent's key produced c's signature.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	if !parent.IsCA && parent != c {
		return ErrNotCA
	}
	want := computeSignature(c.tbsBytes(), parent.PublicKey.ID, c.SignatureAlgorithm)
	if want != c.Signature {
		return ErrSignatureMismatch
	}
	return nil
}

// SelfSigned reports whether the certificate is signed by its own key.
func (c *Certificate) SelfSigned() bool {
	if c.AuthorityKeyID != c.PublicKey.ID {
		return false
	}
	want := computeSignature(c.tbsBytes(), c.PublicKey.ID, c.SignatureAlgorithm)
	return want == c.Signature
}

// IsExpiredAt reports whether the certificate validity window excludes t.
func (c *Certificate) IsExpiredAt(t time.Time) bool { return t.After(c.NotAfter) }

// IsNotYetValidAt reports whether t precedes the validity window.
func (c *Certificate) IsNotYetValidAt(t time.Time) bool { return t.Before(c.NotBefore) }

// ValidityDuration is the issued lifetime of the certificate.
func (c *Certificate) ValidityDuration() time.Duration { return c.NotAfter.Sub(c.NotBefore) }

// ValidityDays is the issued lifetime in whole days (§5.3.1).
func (c *Certificate) ValidityDays() int {
	return int(c.ValidityDuration() / (24 * time.Hour))
}

// HasWildcard reports whether any SAN entry is a wildcard name.
func (c *Certificate) HasWildcard() bool {
	for _, n := range c.DNSNames {
		if strings.HasPrefix(n, "*.") {
			return true
		}
	}
	return strings.HasPrefix(c.Subject.CommonName, "*.")
}

// Names returns the hostnames the certificate claims: SAN entries, falling
// back to the subject common name when no SANs are present.
func (c *Certificate) Names() []string {
	if len(c.DNSNames) > 0 {
		return c.DNSNames
	}
	if c.Subject.CommonName != "" {
		return []string{c.Subject.CommonName}
	}
	return nil
}

// VerifyHostname checks host against the certificate's names using
// RFC 6125-style matching: a wildcard covers exactly one additional label
// and only in the leftmost position.
func (c *Certificate) VerifyHostname(host string) error {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	names := c.Names()
	if len(names) == 0 {
		return ErrNoHostname
	}
	for _, pattern := range names {
		if matchHostname(strings.ToLower(pattern), host) {
			return nil
		}
	}
	return HostnameError{Certificate: c, Host: host}
}

// HostnameError reports a hostname-mismatch failure, the leading cause of
// certificate invalidity in the study (36.6% of invalid certificates).
type HostnameError struct {
	Certificate *Certificate
	Host        string
}

// Error implements the error interface.
func (e HostnameError) Error() string {
	return fmt.Sprintf("cert: host %q does not match certificate names %v",
		e.Host, e.Certificate.Names())
}

func matchHostname(pattern, host string) bool {
	if pattern == "" || host == "" {
		return false
	}
	if !strings.HasPrefix(pattern, "*.") {
		return pattern == host
	}
	// The wildcard must cover exactly one label.
	suffix := pattern[1:] // ".example.gov"
	if !strings.HasSuffix(host, suffix) {
		return false
	}
	label := host[:len(host)-len(suffix)]
	return label != "" && !strings.Contains(label, ".")
}

// Fingerprint returns a stable digest of the full certificate, used to
// detect exact certificate reuse across hosts (§5.3.3).
func (c *Certificate) Fingerprint() [32]byte {
	if c.fp != nil {
		return *c.fp
	}
	return sha256.Sum256(c.Encode())
}
