package world

import (
	"math"
	"math/rand"

	"repro/internal/geo"
)

// ErrorClass is the ground-truth misconfiguration class the generator
// injects into a site. The classes mirror Table 2's taxonomy; the scanner
// and verifier must rediscover them through measurement.
type ErrorClass int

// Injected site classes.
const (
	// ClassValid is a correctly configured https site.
	ClassValid ErrorClass = iota
	// ClassNone marks sites without https (nothing injected).
	ClassNone
	// ClassHostnameMismatch serves a certificate for the wrong name,
	// typically a misused wildcard (§5.3.3).
	ClassHostnameMismatch
	// ClassLocalIssuer serves a chain ending at an untrusted CA (e.g. the
	// NPKI sub-CAs) or missing its intermediate.
	ClassLocalIssuer
	// ClassSelfSigned serves a bare self-signed leaf.
	ClassSelfSigned
	// ClassSelfSignedChain serves a chain anchored at a private root.
	ClassSelfSignedChain
	// ClassExpired serves an expired certificate.
	ClassExpired
	// ClassExcSSLProto negotiates only SSLv2 ("unsupported ssl protocol").
	ClassExcSSLProto
	// ClassExcTimeout blackholes the https port.
	ClassExcTimeout
	// ClassExcRefused refuses connections on 443.
	ClassExcRefused
	// ClassExcReset resets connections during the handshake.
	ClassExcReset
	// ClassExcWrongVersion sends a garbage record version.
	ClassExcWrongVersion
	// ClassExcAlertInternal aborts with a TLSv1 internal_error alert.
	ClassExcAlertInternal
	// ClassExcAlertHandshake aborts with an SSLv3 handshake_failure alert.
	ClassExcAlertHandshake
	// ClassExcAlertProtoVersion aborts with a TLSv1 protocol_version alert.
	ClassExcAlertProtoVersion
)

// classNames for debugging and reports.
var classNames = map[ErrorClass]string{
	ClassValid:                "valid",
	ClassNone:                 "no-https",
	ClassHostnameMismatch:     "hostname-mismatch",
	ClassLocalIssuer:          "local-issuer",
	ClassSelfSigned:           "self-signed",
	ClassSelfSignedChain:      "self-signed-chain",
	ClassExpired:              "expired",
	ClassExcSSLProto:          "exc-ssl-proto",
	ClassExcTimeout:           "exc-timeout",
	ClassExcRefused:           "exc-refused",
	ClassExcReset:             "exc-reset",
	ClassExcWrongVersion:      "exc-wrong-version",
	ClassExcAlertInternal:     "exc-alert-internal",
	ClassExcAlertHandshake:    "exc-alert-handshake",
	ClassExcAlertProtoVersion: "exc-alert-proto-version",
}

// String returns a short class label.
func (c ErrorClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "unknown"
}

// IsException reports whether the class lands in Table 2's "Exceptions"
// bucket rather than a certificate-validation error.
func (c ErrorClass) IsException() bool {
	switch c {
	case ClassExcSSLProto, ClassExcTimeout, ClassExcRefused, ClassExcReset,
		ClassExcWrongVersion, ClassExcAlertInternal, ClassExcAlertHandshake,
		ClassExcAlertProtoVersion:
		return true
	default:
		return false
	}
}

// weighted is a discrete distribution over error classes.
type weighted []struct {
	class  ErrorClass
	weight float64
}

func (w weighted) pick(r *rand.Rand) ErrorClass {
	total := 0.0
	for _, e := range w {
		total += e.weight
	}
	x := r.Float64() * total
	for _, e := range w {
		x -= e.weight
		if x < 0 {
			return e.class
		}
	}
	return w[len(w)-1].class
}

// invalidMixWorldwide reproduces Table 2's invalid-certificate breakdown:
// hostname mismatch 36.59%, local issuer 24.51%, exceptions 17.20% (split
// per the exception sub-table), self-signed 13.22%, expired 5.50%,
// self-signed-in-chain 2.27%, others folded into the alert classes.
var invalidMixWorldwide = weighted{
	{ClassHostnameMismatch, 36.59},
	{ClassLocalIssuer, 24.51},
	{ClassSelfSigned, 13.22},
	{ClassExpired, 5.50},
	{ClassSelfSignedChain, 2.27},
	// Exceptions: 17.20 total, split by the sub-table shares.
	{ClassExcSSLProto, 17.20 * 0.7365},
	{ClassExcTimeout, 17.20 * 0.1443},
	{ClassExcRefused, 17.20 * 0.0515},
	{ClassExcReset, 17.20 * 0.0538},
	{ClassExcWrongVersion, 17.20 * 0.0042},
	{ClassExcAlertInternal, 17.20 * 0.0034},
	{ClassExcAlertHandshake, 17.20 * 0.0026},
	{ClassExcAlertProtoVersion, 17.20 * 0.0030},
}

// invalidMixChina reflects §7.1.2: hostname mismatches dominate (60.1%),
// then local-issuer failures (16.23%) and self-signing (9.68%).
var invalidMixChina = weighted{
	{ClassHostnameMismatch, 60.1},
	{ClassLocalIssuer, 16.23},
	{ClassSelfSigned, 9.68},
	{ClassExpired, 2.56},
	{ClassSelfSignedChain, 0.40},
	{ClassExcSSLProto, 8.0},
	{ClassExcTimeout, 2.0},
	{ClassExcRefused, 0.5},
	{ClassExcReset, 0.5},
}

// invalidMixROK reflects Table A.4 (shares of the 8,542 invalid hosts).
var invalidMixROK = weighted{
	{ClassHostnameMismatch, 2529},
	{ClassLocalIssuer, 2126},
	{ClassSelfSigned, 21},
	{ClassExpired, 23},
	{ClassSelfSignedChain, 818},
	{ClassExcSSLProto, 2903 * 0.80},
	{ClassExcAlertInternal, 2903 * 0.08},
	{ClassExcAlertHandshake, 2903 * 0.06},
	{ClassExcWrongVersion, 2903 * 0.06},
	{ClassExcTimeout, 25},
	{ClassExcRefused, 97},
}

// invalidMixUSA reflects §6.3: exceptions are rare (2.79% of invalidity),
// self-signed-in-chain 0.18%, local issuer 2.44%; mismatches dominate.
var invalidMixUSA = weighted{
	{ClassHostnameMismatch, 62.0},
	{ClassSelfSigned, 12.0},
	{ClassExpired, 18.0},
	{ClassLocalIssuer, 2.44},
	{ClassSelfSignedChain, 0.18},
	{ClassExcSSLProto, 1.6},
	{ClassExcTimeout, 0.6},
	{ClassExcRefused, 0.3},
	{ClassExcReset, 0.29},
}

// Profile is the per-country generation profile.
type Profile struct {
	// HTTPSShare is the fraction of reachable sites attempting https.
	HTTPSShare float64
	// ValidShare is the fraction of https sites that validate.
	ValidShare float64
	// InvalidMix distributes invalid https sites over error classes.
	InvalidMix weighted
	// CloudShare and CDNShare set the hosting distribution; the remainder
	// is privately hosted.
	CloudShare, CDNShare float64
	// CAMix optionally overrides the worldwide CA distribution.
	CAMix []caWeight
	// UnreachableShare adds this fraction of extra never-200 hostnames.
	UnreachableShare float64
}

type caWeight struct {
	name   string
	weight float64
}

// caMixWorldwide approximates Figure 2: Let's Encrypt ~20% of https-enabled
// government sites, followed by the commercial DV issuers.
var caMixWorldwide = []caWeight{
	{"Let's Encrypt Authority X3", 20.0},
	{"cPanel, Inc. Certification Authority", 8.5},
	{"Sectigo RSA Domain Validation Secure Server CA", 7.5},
	{"DigiCert SHA2 Secure Server CA", 6.0},
	{"COMODO RSA Domain Validation Secure Server CA", 5.5},
	{"GlobalSign CloudSSL CA - SHA256 - G3", 4.5},
	{"Encryption Everywhere DV TLS CA - G1", 4.5},
	{"DigiCert SHA2 High Assurance Server CA", 4.0},
	{"Go Daddy Secure Certificate Authority - G2", 3.8},
	{"AlphaSSL CA - SHA256 - G2", 3.5},
	{"GeoTrust RSA CA 2018", 3.2},
	{"RapidSSL RSA CA 2018", 3.0},
	{"Amazon Server CA 1B", 2.8},
	{"Thawte RSA CA 2018", 2.3},
	{"DigiCert SHA2 Extended Validation Server CA", 2.2},
	{"CloudFlare Inc ECC CA-2", 2.0},
	{"Entrust Certification Authority - L1K", 1.8},
	{"QuoVadis Global SSL ICA G3", 1.5},
	{"Network Solutions OV Server CA 2", 1.4},
	{"Microsoft IT TLS CA 5", 1.3},
	{"Starfield Secure Certificate Authority - G2", 1.2},
	{"Certum Domain Validation CA SHA2", 1.1},
	{"GlobalSign RSA OV SSL CA 2018", 1.0},
	{"Sectigo RSA Organization Validation Secure Server CA", 1.0},
	{"DigiCert ECC Secure Server CA", 0.9},
	{"Sectigo ECC Domain Validation Secure Server CA", 0.8},
	{"GlobalSign ECC OV SSL CA 2018", 0.6},
	{"Gandi Standard SSL CA 2", 0.6},
	{"Actalis Organization Validated Server CA G3", 0.5},
	{"TrustAsia TLS RSA CA", 0.5},
	{"Sectigo RSA Extended Validation Secure Server CA", 0.5},
	{"GlobalSign Extended Validation CA - SHA256 - G3", 0.4},
	{"Thawte EV RSA CA 2018", 0.4},
	{"GeoTrust EV RSA CA 2018", 0.35},
	{"Entrust Extended Validation CA - EVCA1", 0.3},
	{"Starfield EV Secure CA - G2", 0.3},
	{"Amazon EV Server CA 1B", 0.25},
	{"Buypass Class 2 CA 5", 0.25},
	{"TeleSec ServerPass Class 2 CA", 0.25},
	{"Certigna Services CA", 0.2},
	{"HARICA SSL RSA SubCA R3", 0.2},
	{"COMODO High-Assurance Secure Server CA", 0.6},
	{"GeoTrust DV SSL CA", 0.5},
	{"Equifax Secure Certificate Authority", 0.3},
	{"RSA Data Security Secure Server CA", 0.15},
	{"D-TRUST SSL Class 3 CA 1 2009", 0.15},
	// Trusted by Microsoft/NSS but not by the conservative Apple store.
	{"e-Szigno TLS CA 2017", 0.15},
	{"Certinomis AA et Agents", 0.1},
}

// caMixROK reflects Figure 11: Sectigo RSA DV leads, AlphaSSL second, with
// the distrusted NPKI sub-CAs still in heavy use.
var caMixROK = []caWeight{
	{"Sectigo RSA Domain Validation Secure Server CA", 22.0},
	{"AlphaSSL CA - SHA256 - G2", 16.0},
	{"CA134100031", 12.0},
	{"COMODO RSA Domain Validation Secure Server CA", 8.0},
	{"Let's Encrypt Authority X3", 7.0},
	{"GlobalSign CloudSSL CA - SHA256 - G3", 6.0},
	{"DigiCert SHA2 Secure Server CA", 5.0},
	{"Thawte EV RSA CA 2018", 4.0},
	{"CA131100001", 3.5},
	{"GPKIRootCA1 Sub CA", 2.5},
	{"GeoTrust EV RSA CA 2018", 2.0},
	{"Encryption Everywhere DV TLS CA - G1", 2.0},
	{"Thawte RSA CA 2018", 1.5},
	{"GeoTrust RSA CA 2018", 1.5},
}

// caMixUSA reflects Figure 8: Let's Encrypt dominates with <5% invalidity,
// followed by the commercial issuers federal agencies favour.
var caMixUSA = []caWeight{
	{"Let's Encrypt Authority X3", 28.0},
	{"DigiCert SHA2 Secure Server CA", 10.0},
	{"Go Daddy Secure Certificate Authority - G2", 8.0},
	{"Amazon Server CA 1B", 7.0},
	{"Sectigo RSA Domain Validation Secure Server CA", 6.0},
	{"DigiCert SHA2 High Assurance Server CA", 5.5},
	{"Entrust Certification Authority - L1K", 5.0},
	{"cPanel, Inc. Certification Authority", 4.5},
	{"GlobalSign CloudSSL CA - SHA256 - G3", 4.0},
	{"CloudFlare Inc ECC CA-2", 3.5},
	{"COMODO RSA Domain Validation Secure Server CA", 3.0},
	{"Network Solutions OV Server CA 2", 2.5},
	{"DigiCert SHA2 Extended Validation Server CA", 2.5},
	{"GeoTrust RSA CA 2018", 2.0},
	{"Starfield Secure Certificate Authority - G2", 1.8},
	{"Encryption Everywhere DV TLS CA - G1", 1.6},
	{"Microsoft IT TLS CA 5", 1.5},
	{"RapidSSL RSA CA 2018", 1.4},
	{"DigiCert ECC Secure Server CA", 1.2},
	{"Thawte RSA CA 2018", 1.0},
	{"Entrust Extended Validation CA - EVCA1", 0.8},
	{"Starfield EV Secure CA - G2", 0.7},
	{"Amazon EV Server CA 1B", 0.5},
	{"GeoTrust DV SSL CA", 0.4},
	{"AlphaSSL CA - SHA256 - G2", 0.4},
}

// caMixSwitzerland reflects §5.2: QuoVadis Global SSL ICA G3 leads.
var caMixSwitzerland = []caWeight{
	{"QuoVadis Global SSL ICA G3", 30.0},
	{"Let's Encrypt Authority X3", 18.0},
	{"SwissSign Server Gold CA 2014 - G22", 14.0},
	{"DigiCert SHA2 Secure Server CA", 8.0},
	{"Sectigo RSA Domain Validation Secure Server CA", 6.0},
}

// caMixChina reflects §5.2: Encryption Everywhere DV TLS CA-G1 leads.
var caMixChina = []caWeight{
	{"Encryption Everywhere DV TLS CA - G1", 26.0},
	{"TrustAsia TLS RSA CA", 14.0},
	{"WoTrus DV Server CA", 10.0},
	{"CFCA EV OCA", 8.0},
	{"Let's Encrypt Authority X3", 8.0},
	{"DigiCert SHA2 Secure Server CA", 6.0},
	{"GlobalSign CloudSSL CA - SHA256 - G3", 4.0},
	// Old unpatched servers cluster behind the firewall (§5.3, POODLE-era
	// software), so the legacy weak-signature issuers remain in use.
	{"COMODO High-Assurance Secure Server CA", 2.5},
	{"GeoTrust DV SSL CA", 2.0},
	{"RSA Data Security Secure Server CA", 0.8},
}

// defaultProfile derives a country's profile from its Internet penetration:
// connected countries adopt https more and validate better, matching the
// worldwide gradient in Figure 1.
func defaultProfile(c geo.Country) Profile {
	inet := c.InternetPct / 100
	return Profile{
		HTTPSShare:       clamp(0.04+0.40*pow13(inet), 0.04, 0.92),
		ValidShare:       clamp(0.42+0.47*pow13(inet), 0.12, 0.96),
		InvalidMix:       invalidMixWorldwide,
		CloudShare:       clamp(0.02+0.10*inet, 0, 0.25),
		CDNShare:         clamp(0.01+0.05*inet, 0, 0.12),
		UnreachableShare: clamp(0.55-0.35*inet, 0.10, 0.60),
	}
}

func pow13(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, 1.3)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
