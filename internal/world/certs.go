package world

import (
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/simnet"
	"repro/internal/tlssim"
)

// certFactory assigns certificate chains and TLS behaviour to sites
// according to their injected error class, reproducing the certificate
// pathology the paper catalogues: misused wildcards, distrusted issuers,
// self-signing, expiry with absurd lifetimes, and protocol-level failures.
type certFactory struct {
	w *World
	r *rand.Rand

	// sharedWildcards caches each country's shared wildcard certificates —
	// the Bangladesh/Colombia pattern of §5.3.3.
	sharedWildcards map[string][][]*cert.Certificate
	// internalCAs caches per-country untrusted "government internal" CAs.
	internalCAs map[string]*internalCA
	// epochCertPlaced tracks the single 1970-epoch certificate (§5.3.1).
	epochCertPlaced bool
	// serialBase, when non-zero, gives this factory a private slice of the
	// CA serial space so parallel factories never touch the authorities'
	// shared counters. serialCtr counts issuances within the slice.
	serialBase uint64
	serialCtr  uint64
	// weights is pickCA's scratch buffer, reused across draws.
	weights []float64
}

type internalCA struct {
	rootKey  cert.KeyID
	issuerCN string
}

func newCertFactory(w *World, r *rand.Rand) *certFactory {
	return &certFactory{
		w:               w,
		r:               r,
		sharedWildcards: make(map[string][][]*cert.Certificate),
		internalCAs:     make(map[string]*internalCA),
	}
}

// sharedWildcardCounts fixes the §5.3.3 top violators: number of distinct
// wildcard certificates shared across each country's mismatched hosts.
var sharedWildcardCounts = map[string]int{
	"bd": 2, "co": 3, "dm": 1, "vn": 3,
}

// configure fills the site's chain and TLS behaviour for its class. The CA
// mix defaults to the worldwide distribution.
func (f *certFactory) configure(s *Site, class ErrorClass, mix []caWeight) {
	s.Injected = class
	s.TLSMin, s.TLSMax = tlssim.TLS1_0, tlssim.TLS1_2
	if f.r.Float64() < 0.25 {
		s.TLSMax = tlssim.TLS1_3
	}
	switch class {
	case ClassNone:
		return
	case ClassValid:
		f.issueValid(s, mix)
	case ClassExpired:
		f.issueExpired(s, mix)
	case ClassHostnameMismatch:
		f.issueMismatch(s, mix)
	case ClassLocalIssuer:
		f.issueLocalIssuer(s, mix)
	case ClassSelfSigned:
		f.issueSelfSigned(s)
	case ClassSelfSignedChain:
		f.issueSelfSignedChain(s)
	case ClassExcSSLProto:
		f.issueValid(s, mix) // the chain exists but is never delivered
		s.TLSMin, s.TLSMax = tlssim.SSLv2, tlssim.SSLv2
		s.Quirk = tlssim.QuirkSSLv2Only
	case ClassExcWrongVersion:
		f.issueValid(s, mix)
		s.Quirk = tlssim.QuirkWrongVersionNumber
	case ClassExcAlertInternal:
		f.issueValid(s, mix)
		s.Quirk = tlssim.QuirkInternalErrorAlert
	case ClassExcAlertHandshake:
		f.issueValid(s, mix)
		s.Quirk = tlssim.QuirkHandshakeFailureAlert
	case ClassExcAlertProtoVersion:
		f.issueValid(s, mix)
		s.Quirk = tlssim.QuirkProtocolVersionAlert
	case ClassExcTimeout:
		s.Fault = simnet.FaultTimeout
		s.Serving = BothRedirect
	case ClassExcRefused:
		// A refused 443 is indistinguishable from "no https" unless the
		// http side advertises the upgrade; these sites redirect.
		s.Fault = simnet.FaultRefuse
		s.Serving = BothRedirect
	case ClassExcReset:
		s.Fault = simnet.FaultReset
		s.Serving = BothRedirect
	}
}

// pickCA draws an authority from the mix. Valid issuance excludes
// distrusted and weak-signature CAs (their use correlates with invalidity,
// Figure 4); invalid issuance skews toward them.
// nextSerial returns the serial number for the factory's next issuance:
// zero in sequential mode (letting the CA's own counter run), or the next
// value of the factory's private slice in parallel mode.
func (f *certFactory) nextSerial() uint64 {
	if f.serialBase == 0 {
		return 0
	}
	f.serialCtr++
	return f.serialBase | f.serialCtr
}

func (f *certFactory) pickCA(mix []caWeight, forValid bool) *ca.Authority {
	total := 0.0
	if cap(f.weights) < len(mix) {
		f.weights = make([]float64, len(mix))
	}
	weights := f.weights[:len(mix)]
	for i, cw := range mix {
		weights[i] = 0
		a, ok := f.w.CAs.Lookup(cw.name)
		if !ok {
			continue
		}
		wgt := cw.weight
		if forValid && (a.Distrusted || a.SigAlg.IsWeak() || a.SigAlg == cert.SHA256WithRSAPSS) {
			wgt = 0
		}
		if !forValid {
			switch {
			case a.NotInApple:
				// Store-gap CAs belong to the intended-valid population
				// (§4.3); mixing them into broken sites would conflate two
				// failure causes.
				wgt = 0
			case a.Distrusted || a.SigAlg.IsWeak() || a.SigAlg == cert.SHA256WithRSAPSS:
				wgt *= 12 // legacy issuers concentrate among broken sites
			case a.SigAlg.IsECDSA():
				wgt *= 0.1 // EC-signed chains are almost always healthy (Fig 4)
			}
		}
		weights[i] = wgt
		total += wgt
	}
	x := f.r.Float64() * total
	for i, wgt := range weights {
		x -= wgt
		if x < 0 {
			return f.w.CAs.MustLookup(mix[i].name)
		}
	}
	return f.w.CAs.MustLookup("Let's Encrypt Authority X3")
}

// hostKey draws the host key, conditioned on the issuing CA (EC CAs attest
// EC keys) and the class (odd RSA sizes concentrate among invalid sites).
func (f *certFactory) hostKey(a *ca.Authority, forValid bool) cert.PublicKey {
	if a.SigAlg.IsECDSA() {
		bits := 256
		if a.SigAlg == cert.ECDSAWithSHA384 {
			bits = 384
		}
		return cert.NewKey(f.r, cert.KeyECDSA, bits)
	}
	x := f.r.Float64()
	var bits int
	if forValid {
		switch {
		case x < 0.72:
			bits = 2048
		case x < 0.90:
			bits = 4096
		case x < 0.96:
			return cert.NewKey(f.r, cert.KeyECDSA, 256)
		case x < 0.985:
			bits = 3072
		default:
			bits = 2048
		}
	} else {
		switch {
		case x < 0.62:
			bits = 2048
		case x < 0.78:
			bits = 4096
		case x < 0.84:
			bits = 1024 // NIST-deprecated (§5.3.2)
		case x < 0.90:
			bits = 3248 // "generally misconfigured"
		case x < 0.94:
			bits = 8192 // unsupported by browsers above 4096
		case x < 0.97:
			return cert.NewKey(f.r, cert.KeyECDSA, 256)
		default:
			bits = 2048
		}
	}
	return cert.NewKey(f.r, cert.KeyRSA, bits)
}

func (f *certFactory) issueValid(s *Site, mix []caWeight) {
	a := f.pickCA(mix, true)
	key := f.hostKey(a, true)
	hostnames := []string{s.Hostname}
	if f.r.Float64() < 0.35 {
		// Correctly scoped wildcard covering the host (39% of sites use
		// wildcards; most are valid). Never a whole registry zone like
		// *.gov.xx — real CAs refuse public-suffix wildcards.
		parent := parentDomain(s.Hostname)
		if parent != s.Hostname && strings.Count(parent, ".") >= 2 {
			hostnames = []string{"*." + parent, parent}
		} else {
			// Hosts directly under the registry zone get a wildcard for
			// their own subtree instead: *.health.gov.xx + health.gov.xx.
			hostnames = []string{"*." + s.Hostname, s.Hostname}
		}
	}
	start := f.w.ScanTime.Add(-time.Duration(5+f.r.Intn(60)) * 24 * time.Hour)
	s.Chain = a.Issue(ca.Request{
		Hostnames:    hostnames,
		Key:          key,
		NotBefore:    start,
		EV:           a.EV,
		Organization: orgName(s),
		Country:      s.Country,
		Serial:       f.nextSerial(),
	})
	s.Issuer = a.Name
}

func (f *certFactory) issueExpired(s *Site, mix []caWeight) {
	a := f.pickCA(mix, false)
	key := f.hostKey(a, false)
	lifetime := f.invalidLifetime()
	// Expired sometime in the past year.
	expiredAgo := time.Duration(10+f.r.Intn(350)) * 24 * time.Hour
	start := f.w.ScanTime.Add(-lifetime - expiredAgo)
	s.Chain = a.Issue(ca.Request{
		Hostnames: []string{s.Hostname},
		Key:       key,
		NotBefore: start,
		Lifetime:  lifetime,
		Serial:    f.nextSerial(),
	})
	s.Issuer = a.Name
}

func (f *certFactory) issueMismatch(s *Site, mix []caWeight) {
	country := s.Country
	if country == "" {
		country = "xx"
	}
	if f.r.Float64() < 0.6 {
		// Reuse the country's shared wildcard certificate on a host the
		// wildcard does not cover — the Bangladesh/Colombia pattern.
		s.Chain = f.sharedWildcard(country, mix)
		s.Issuer = s.Chain[0].Issuer.CommonName
		return
	}
	// Otherwise a certificate for an unrelated hostname of the same
	// government (copy-pasted vhost configuration).
	a := f.pickCA(mix, false)
	key := f.hostKey(a, false)
	other := "old-" + s.Hostname
	start := f.w.ScanTime.Add(-time.Duration(10+f.r.Intn(300)) * 24 * time.Hour)
	s.Chain = a.Issue(ca.Request{
		Hostnames: []string{other},
		Key:       key,
		NotBefore: start,
		Lifetime:  f.invalidLifetime(),
		Serial:    f.nextSerial(),
	})
	s.Issuer = a.Name
}

// sharedWildcard returns (creating on first use) the chain of one of the
// country's shared wildcard certificates.
func (f *certFactory) sharedWildcard(country string, mix []caWeight) []*cert.Certificate {
	certs := f.sharedWildcards[country]
	want := sharedWildcardCounts[country]
	if want == 0 {
		want = 1 + f.r.Intn(2)
	}
	if len(certs) < want {
		a := f.pickCA(mix, true) // the certificate itself is healthy
		key := f.hostKey(a, true)
		zone := "portal" + strconv.Itoa(len(certs)+1) + ".gov." + country
		// Shared portal certificates often carry the long, out-of-policy
		// lifetimes §5.3.1 observes on invalid certificates.
		lifetime := time.Duration(0)
		if f.r.Float64() < 0.6 {
			lifetime = f.invalidLifetime()
		}
		chain := a.Issue(ca.Request{
			Hostnames: []string{"*." + zone, zone},
			Key:       key,
			NotBefore: f.w.ScanTime.Add(-90 * 24 * time.Hour),
			Lifetime:  lifetime,
			Serial:    f.nextSerial(),
		})
		f.sharedWildcards[country] = append(certs, chain)
		return chain
	}
	return certs[f.r.Intn(len(certs))]
}

func (f *certFactory) issueLocalIssuer(s *Site, mix []caWeight) {
	// Two roads to OpenSSL error 20: a chain from an untrusted CA, or a
	// server that forgot to install its intermediate.
	useInternal := f.r.Float64() < 0.55
	if s.Country == "kr" {
		useInternal = f.r.Float64() < 0.85 // NPKI territory
	}
	if useInternal {
		ic := f.internalCA(s.Country, mix)
		key := f.hostKey(f.w.CAs.MustLookup("Let's Encrypt Authority X3"), false)
		leaf := &cert.Certificate{
			SerialNumber:       f.r.Uint64(),
			Subject:            cert.Name{CommonName: s.Hostname, Country: s.Country},
			Issuer:             cert.Name{CommonName: ic.issuerCN},
			DNSNames:           []string{s.Hostname},
			NotBefore:          f.w.ScanTime.Add(-100 * 24 * time.Hour),
			NotAfter:           f.w.ScanTime.Add(f.invalidLifetime()),
			PublicKey:          key,
			SignatureAlgorithm: cert.SHA256WithRSA,
		}
		leaf.Sign(ic.rootKey)
		// The untrusted root is not served, so the client cannot anchor.
		s.Chain = []*cert.Certificate{leaf}
		s.Issuer = ic.issuerCN
		return
	}
	a := f.pickCA(mix, false)
	if a.Distrusted {
		// A distrusted real CA: serve leaf+intermediate; the root is gone
		// from the stores.
		key := f.hostKey(a, false)
		start := f.w.ScanTime.Add(-time.Duration(10+f.r.Intn(200)) * 24 * time.Hour)
		s.Chain = a.Issue(ca.Request{Hostnames: []string{s.Hostname}, Key: key, NotBefore: start, Serial: f.nextSerial()})
		s.Issuer = a.Name
		return
	}
	// Missing intermediate: serve only the leaf.
	key := f.hostKey(a, false)
	start := f.w.ScanTime.Add(-time.Duration(10+f.r.Intn(200)) * 24 * time.Hour)
	chain := a.Issue(ca.Request{Hostnames: []string{s.Hostname}, Key: key, NotBefore: start, Serial: f.nextSerial()})
	s.Chain = chain[:1]
	s.Issuer = a.Name
}

func (f *certFactory) internalCA(country string, mix []caWeight) *internalCA {
	if country == "kr" {
		// South Korea's local-issuer failures run through the real NPKI
		// sub-CAs, which are modeled as distrusted authorities.
		name := "CA134100031"
		if f.r.Float64() < 0.4 {
			name = "CA131100001"
		}
		a := f.w.CAs.MustLookup(name)
		return &internalCA{rootKey: a.Intermediate.PublicKey.ID, issuerCN: a.Name}
	}
	ic, ok := f.internalCAs[country]
	if !ok {
		key := cert.NewKey(f.r, cert.KeyRSA, 2048)
		cn := "Government of " + country + " Internal CA"
		root := &cert.Certificate{
			SerialNumber:       f.r.Uint64(),
			Subject:            cert.Name{CommonName: cn, Country: country},
			Issuer:             cert.Name{CommonName: cn, Country: country},
			NotBefore:          f.w.ScanTime.AddDate(-5, 0, 0),
			NotAfter:           f.w.ScanTime.AddDate(15, 0, 0),
			PublicKey:          key,
			SignatureAlgorithm: cert.SHA256WithRSA,
			IsCA:               true,
		}
		root.Sign(key.ID)
		ic = &internalCA{rootKey: key.ID, issuerCN: cn}
		f.internalCAs[country] = ic
	}
	return ic
}

func (f *certFactory) issueSelfSigned(s *Site) {
	key := cert.NewKey(f.r, cert.KeyRSA, 2048)
	hostnames := []string{s.Hostname}
	if f.r.Float64() < 0.35 {
		hostnames = []string{"localhost"} // default vendor certificates
	}
	start := f.w.ScanTime.Add(-time.Duration(30+f.r.Intn(700)) * 24 * time.Hour)
	leaf := ca.SelfSigned(key, hostnames, start, f.invalidLifetime(), cert.SHA256WithRSA)
	if f.placeEpochCert() {
		leaf = ca.SelfSigned(key, hostnames, time.Unix(0, 0).UTC(), 70*365*24*time.Hour, cert.SHA256WithRSA)
	}
	s.Chain = []*cert.Certificate{leaf}
	s.Issuer = ""
}

func (f *certFactory) issueSelfSignedChain(s *Site) {
	rootKey := cert.NewKey(f.r, cert.KeyRSA, 2048)
	cn := parentDomain(s.Hostname) + " Root"
	root := &cert.Certificate{
		SerialNumber:       f.r.Uint64(),
		Subject:            cert.Name{CommonName: cn},
		Issuer:             cert.Name{CommonName: cn},
		NotBefore:          f.w.ScanTime.AddDate(-3, 0, 0),
		NotAfter:           f.w.ScanTime.AddDate(17, 0, 0),
		PublicKey:          rootKey,
		SignatureAlgorithm: cert.SHA256WithRSA,
		IsCA:               true,
	}
	root.Sign(rootKey.ID)
	leafKey := cert.NewKey(f.r, cert.KeyRSA, 2048)
	leaf := &cert.Certificate{
		SerialNumber:       f.r.Uint64(),
		Subject:            cert.Name{CommonName: s.Hostname},
		Issuer:             root.Subject,
		DNSNames:           []string{s.Hostname},
		NotBefore:          f.w.ScanTime.AddDate(-1, 0, 0),
		NotAfter:           f.w.ScanTime.Add(f.invalidLifetime()),
		PublicKey:          leafKey,
		SignatureAlgorithm: cert.SHA256WithRSA,
	}
	leaf.Sign(rootKey.ID)
	s.Chain = []*cert.Certificate{leaf, root}
	s.Issuer = cn
}

// invalidLifetime reproduces §5.3.1's spread: 43% of invalid certificates
// are issued for multiples of 365 days, with a long tail of 10/20/30/50/100
// year lifetimes.
func (f *certFactory) invalidLifetime() time.Duration {
	day := 24 * time.Hour
	x := f.r.Float64()
	switch {
	case x < 0.32: // under two years
		return time.Duration(90+f.r.Intn(640)) * day
	case x < 0.57: // two to three years
		return time.Duration(730+f.r.Intn(365)) * day
	case x < 0.75: // exactly N*365 for small N
		return time.Duration(365*(1+f.r.Intn(3))) * day
	case x < 0.86: // three to ten years
		return time.Duration(1100+f.r.Intn(2500)) * day
	case x < 0.945:
		return 10 * 365 * day
	case x < 0.97:
		return 20 * 365 * day
	case x < 0.985:
		return 30 * 365 * day
	case x < 0.9865:
		return 50 * 365 * day
	default:
		return 100 * 365 * day
	}
}

// placeEpochCert returns true exactly once per world.
func (f *certFactory) placeEpochCert() bool {
	if f.epochCertPlaced {
		return false
	}
	f.epochCertPlaced = true
	return true
}

func orgName(s *Site) string {
	if s.Country == "" {
		return ""
	}
	return "Government of " + s.Country
}
