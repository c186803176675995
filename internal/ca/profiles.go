package ca

import (
	"time"

	"repro/internal/cert"
)

// Lifetimes used by correctly configured CAs (§3.1, §5.3.1).
const (
	Lifetime90d = 90 * 24 * time.Hour
	Lifetime1y  = 365 * 24 * time.Hour
	Lifetime2y  = 730 * 24 * time.Hour
)

// BuiltinProfiles returns the CA ecosystem of the study: the top issuers of
// Figure 2 (worldwide), Figure 8 (USA) and Figure 11 (ROK), the EV issuers
// of Figures A.2/A.3/A.6, legacy weak-signature CAs, and the distrusted
// South Korean NPKI sub-CAs.
func BuiltinProfiles() []Profile {
	rsa256 := func(name, owner, country string, free bool, life time.Duration) Profile {
		return Profile{Name: name, Owner: owner, Country: country, Free: free,
			SigAlg: cert.SHA256WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: life}
	}
	ev := func(p Profile, oid string) Profile {
		p.EV = true
		p.EVPolicyOID = oid
		p.DefaultLifetime = Lifetime2y
		return p
	}
	return []Profile{
		// --- Major worldwide DV issuers (Figure 2) ---
		rsa256("Let's Encrypt Authority X3", "Let's Encrypt", "US", true, Lifetime90d),
		rsa256("cPanel, Inc. Certification Authority", "Sectigo", "GB", true, Lifetime90d),
		rsa256("Sectigo RSA Domain Validation Secure Server CA", "Sectigo", "GB", false, Lifetime1y),
		rsa256("Sectigo RSA Organization Validation Secure Server CA", "Sectigo", "GB", false, Lifetime1y),
		rsa256("COMODO RSA Domain Validation Secure Server CA", "Sectigo", "GB", false, Lifetime2y),
		rsa256("DigiCert SHA2 Secure Server CA", "DigiCert", "US", false, Lifetime2y),
		rsa256("DigiCert SHA2 High Assurance Server CA", "DigiCert", "US", false, Lifetime2y),
		rsa256("Encryption Everywhere DV TLS CA - G1", "DigiCert", "US", true, Lifetime1y),
		rsa256("RapidSSL RSA CA 2018", "DigiCert", "US", false, Lifetime1y),
		rsa256("GeoTrust RSA CA 2018", "DigiCert", "US", false, Lifetime2y),
		rsa256("Thawte RSA CA 2018", "DigiCert", "US", false, Lifetime2y),
		rsa256("GlobalSign CloudSSL CA - SHA256 - G3", "GlobalSign", "BE", false, Lifetime1y),
		rsa256("GlobalSign RSA OV SSL CA 2018", "GlobalSign", "BE", false, Lifetime2y),
		rsa256("AlphaSSL CA - SHA256 - G2", "GlobalSign", "BE", false, Lifetime1y),
		rsa256("Go Daddy Secure Certificate Authority - G2", "GoDaddy", "US", false, Lifetime2y),
		rsa256("Starfield Secure Certificate Authority - G2", "GoDaddy", "US", false, Lifetime2y),
		rsa256("Amazon Server CA 1B", "Amazon", "US", true, Lifetime1y),
		rsa256("Entrust Certification Authority - L1K", "Entrust", "US", false, Lifetime2y),
		rsa256("Network Solutions OV Server CA 2", "Network Solutions", "US", false, Lifetime2y),
		rsa256("Microsoft IT TLS CA 5", "Microsoft", "US", false, Lifetime2y),
		rsa256("QuoVadis Global SSL ICA G3", "QuoVadis", "BM", false, Lifetime2y),
		rsa256("Certum Domain Validation CA SHA2", "Asseco", "PL", false, Lifetime1y),
		rsa256("Gandi Standard SSL CA 2", "Sectigo", "FR", false, Lifetime1y),
		rsa256("Actalis Organization Validated Server CA G3", "Actalis", "IT", false, Lifetime1y),
		rsa256("SwissSign Server Gold CA 2014 - G22", "SwissSign", "CH", false, Lifetime2y),
		rsa256("TrustAsia TLS RSA CA", "TrustAsia", "CN", false, Lifetime1y),
		rsa256("WoTrus DV Server CA", "WoTrus", "CN", false, Lifetime1y),
		rsa256("CFCA EV OCA", "CFCA", "CN", false, Lifetime2y),
		rsa256("TeleSec ServerPass Class 2 CA", "Deutsche Telekom", "DE", false, Lifetime2y),
		rsa256("Buypass Class 2 CA 5", "Buypass", "NO", true, Lifetime90d),
		rsa256("Certigna Services CA", "Certigna", "FR", false, Lifetime2y),
		rsa256("HARICA SSL RSA SubCA R3", "HARICA", "GR", false, Lifetime1y),
		rsa256("Izenpe SSL CA", "Izenpe", "ES", false, Lifetime2y),
		rsa256("ACCV CA-120", "ACCV", "ES", false, Lifetime2y),
		rsa256("AC FNMT Usuarios", "FNMT-RCM", "ES", false, Lifetime2y),
		rsa256("Taiwan GRCA Government SSL CA", "Taiwan GRCA", "TW", false, Lifetime2y),
		rsa256("eMudhra emSign SSL CA", "eMudhra", "IN", false, Lifetime1y),

		// --- ECDSA issuers (high-validity cluster of Figure 4) ---
		{Name: "CloudFlare Inc ECC CA-2", Owner: "Cloudflare", Country: "US", Free: true,
			SigAlg: cert.ECDSAWithSHA256, KeyType: cert.KeyECDSA, KeyBits: 256, DefaultLifetime: Lifetime1y},
		{Name: "DigiCert ECC Secure Server CA", Owner: "DigiCert", Country: "US",
			SigAlg: cert.ECDSAWithSHA384, KeyType: cert.KeyECDSA, KeyBits: 384, DefaultLifetime: Lifetime1y},
		{Name: "Sectigo ECC Domain Validation Secure Server CA", Owner: "Sectigo", Country: "GB",
			SigAlg: cert.ECDSAWithSHA256, KeyType: cert.KeyECDSA, KeyBits: 256, DefaultLifetime: Lifetime1y},
		{Name: "GlobalSign ECC OV SSL CA 2018", Owner: "GlobalSign", Country: "BE",
			SigAlg: cert.ECDSAWithSHA384, KeyType: cert.KeyECDSA, KeyBits: 384, DefaultLifetime: Lifetime1y},

		// --- Legacy weak-signature issuers (920 MD5/SHA1 sites, §5.3.2) ---
		{Name: "COMODO High-Assurance Secure Server CA", Owner: "Sectigo", Country: "GB",
			SigAlg: cert.SHA1WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},
		{Name: "GeoTrust DV SSL CA", Owner: "DigiCert", Country: "US",
			SigAlg: cert.SHA1WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},
		{Name: "Equifax Secure Certificate Authority", Owner: "GeoTrust Legacy", Country: "US",
			SigAlg: cert.SHA1WithRSA, KeyType: cert.KeyRSA, KeyBits: 1024, DefaultLifetime: Lifetime2y},
		{Name: "RSA Data Security Secure Server CA", Owner: "RSA Data Security", Country: "US",
			SigAlg: cert.MD5WithRSA, KeyType: cert.KeyRSA, KeyBits: 1024, DefaultLifetime: Lifetime2y},
		{Name: "D-TRUST SSL Class 3 CA 1 2009", Owner: "D-Trust", Country: "DE",
			SigAlg: cert.SHA256WithRSAPSS, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},

		// --- EV issuers (Figures A.2, A.3, A.6) ---
		ev(rsa256("DigiCert SHA2 Extended Validation Server CA", "DigiCert", "US", false, 0), "2.16.840.1.114412.2.1"),
		ev(rsa256("Sectigo RSA Extended Validation Secure Server CA", "Sectigo", "GB", false, 0), "1.3.6.1.4.1.6449.1.2.1.5.1"),
		ev(rsa256("GlobalSign Extended Validation CA - SHA256 - G3", "GlobalSign", "BE", false, 0), "1.3.6.1.4.1.4146.1.1"),
		ev(rsa256("Thawte EV RSA CA 2018", "DigiCert", "US", false, 0), "2.16.840.1.113733.1.7.48.1"),
		ev(rsa256("GeoTrust EV RSA CA 2018", "DigiCert", "US", false, 0), "2.16.840.1.113733.1.7.54"),
		ev(rsa256("Entrust Extended Validation CA - EVCA1", "Entrust", "US", false, 0), "2.16.840.1.114028.10.1.2"),
		ev(rsa256("Starfield EV Secure CA - G2", "GoDaddy", "US", false, 0), "2.16.840.1.114414.1.7.23.3"),
		ev(rsa256("Amazon EV Server CA 1B", "Amazon", "US", false, 0), "2.23.140.1.1"),

		// --- Trusted by Microsoft/NSS but not Apple (§4.3's conservative-
		// store gap: a small number of chains fail only in our scans) ---
		{Name: "e-Szigno TLS CA 2017", Owner: "Microsec", Country: "HU", NotInApple: true,
			SigAlg: cert.SHA256WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime1y},
		{Name: "Certinomis AA et Agents", Owner: "Certinomis", Country: "FR", NotInApple: true,
			SigAlg: cert.SHA256WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},

		// --- Distrusted South Korean NPKI/GPKI sub-CAs (§6.2, §6.3) ---
		{Name: "CA134100031", Owner: "NPKI", Country: "KR", Distrusted: true,
			SigAlg: cert.SHA256WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},
		{Name: "CA131100001", Owner: "NPKI", Country: "KR", Distrusted: true,
			SigAlg: cert.SHA256WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},
		{Name: "GPKIRootCA1 Sub CA", Owner: "Korea GPKI", Country: "KR", Distrusted: true,
			SigAlg: cert.SHA256WithRSA, KeyType: cert.KeyRSA, KeyBits: 2048, DefaultLifetime: Lifetime2y},
	}
}
