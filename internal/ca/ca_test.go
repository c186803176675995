package ca

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/truststore"
	"repro/internal/verify"
)

var issueTime = time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)

func newReg() *Registry { return NewRegistry(rand.New(rand.NewSource(100))) }

func TestRegistryContainsKeyCAs(t *testing.T) {
	reg := newReg()
	for _, name := range []string{
		"Let's Encrypt Authority X3",
		"Sectigo RSA Domain Validation Secure Server CA",
		"AlphaSSL CA - SHA256 - G2",
		"QuoVadis Global SSL ICA G3",
		"Encryption Everywhere DV TLS CA - G1",
		"CA134100031",
		"CA131100001",
	} {
		if _, ok := reg.Lookup(name); !ok {
			t.Errorf("missing CA %q", name)
		}
	}
}

func TestIssueProducesVerifiableChain(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(101))
	a := reg.MustLookup("Let's Encrypt Authority X3")
	key := cert.NewKey(rng, cert.KeyRSA, 2048)
	chain := a.Issue(Request{
		Hostnames: []string{"portal.gov.br"},
		Key:       key,
		NotBefore: issueTime,
	})
	if len(chain) != 2 {
		t.Fatalf("chain length = %d", len(chain))
	}
	store := reg.BuildStore("apple", AppleCounts, rng)
	v := &verify.Verifier{Store: store, Now: issueTime.AddDate(0, 1, 0)}
	res := v.Verify(chain, "portal.gov.br")
	if !res.Valid() {
		t.Fatalf("issued chain invalid: %v", res.Code)
	}
}

func TestIssueDefaultLifetime(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(102))
	a := reg.MustLookup("Let's Encrypt Authority X3")
	chain := a.Issue(Request{Hostnames: []string{"a.gov.br"}, Key: cert.NewKey(rng, cert.KeyRSA, 2048), NotBefore: issueTime})
	if got := chain[0].ValidityDays(); got != 90 {
		t.Errorf("Let's Encrypt lifetime = %d days, want 90", got)
	}
}

func TestIssueLifetimeOverride(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(103))
	a := reg.MustLookup("DigiCert SHA2 Secure Server CA")
	chain := a.Issue(Request{
		Hostnames: []string{"a.gov.br"},
		Key:       cert.NewKey(rng, cert.KeyRSA, 2048),
		NotBefore: issueTime,
		Lifetime:  10 * 365 * 24 * time.Hour, // the §5.3.1 misconfiguration
	})
	if got := chain[0].ValidityDays(); got != 3650 {
		t.Errorf("lifetime = %d days, want 3650", got)
	}
}

func TestIssueSerialsUnique(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(104))
	a := reg.MustLookup("Let's Encrypt Authority X3")
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		c := a.Issue(Request{Hostnames: []string{"x.gov.br"}, Key: cert.NewKey(rng, cert.KeyRSA, 2048), NotBefore: issueTime})[0]
		if seen[c.SerialNumber] {
			t.Fatalf("duplicate serial %d", c.SerialNumber)
		}
		seen[c.SerialNumber] = true
	}
}

func TestIssueEVPolicy(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(105))
	evCA := reg.MustLookup("DigiCert SHA2 Extended Validation Server CA")
	chain := evCA.Issue(Request{
		Hostnames:    []string{"treasury.gov"},
		Key:          cert.NewKey(rng, cert.KeyRSA, 2048),
		NotBefore:    issueTime,
		EV:           true,
		Organization: "Department of the Treasury",
	})
	if len(chain[0].PolicyOIDs) != 1 {
		t.Fatalf("EV policy OIDs = %v", chain[0].PolicyOIDs)
	}
	store := reg.BuildStore("apple", AppleCounts, rng)
	v := &verify.Verifier{Store: store, Now: issueTime.AddDate(0, 1, 0)}
	res := v.Verify(chain, "treasury.gov")
	if !res.Valid() || !store.IsTrustedEVPolicy(chain[0].PolicyOIDs[0]) {
		t.Errorf("EV chain: valid=%v, EV policy trusted=%v", res.Valid(), store.IsTrustedEVPolicy(chain[0].PolicyOIDs[0]))
	}

	// DV CAs must not emit EV policies even when asked.
	dv := reg.MustLookup("Let's Encrypt Authority X3")
	dvChain := dv.Issue(Request{Hostnames: []string{"x.gov"}, Key: cert.NewKey(rng, cert.KeyRSA, 2048), NotBefore: issueTime, EV: true})
	if len(dvChain[0].PolicyOIDs) != 0 {
		t.Error("DV CA issued EV policy OID")
	}
}

func TestDistrustedCAChainsFail(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(106))
	npki := reg.MustLookup("CA134100031")
	chain := npki.Issue(Request{Hostnames: []string{"minwon.go.kr"}, Key: cert.NewKey(rng, cert.KeyRSA, 2048), NotBefore: issueTime})
	store := reg.BuildStore("apple", AppleCounts, rng)
	v := &verify.Verifier{Store: store, Now: issueTime.AddDate(0, 1, 0)}
	res := v.Verify(chain, "minwon.go.kr")
	if res.Code != verify.UnableToGetLocalIssuer {
		t.Errorf("NPKI chain = %v, want UnableToGetLocalIssuer", res.Code)
	}
}

func TestSelfSignedHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	key := cert.NewKey(rng, cert.KeyRSA, 2048)
	c := SelfSigned(key, []string{"localhost"}, issueTime, Lifetime2y, cert.SHA256WithRSA)
	if !c.SelfSigned() {
		t.Fatal("SelfSigned helper output not self-signed")
	}
	store := truststore.New()
	v := &verify.Verifier{Store: store, Now: issueTime.AddDate(0, 1, 0)}
	if res := v.Verify([]*cert.Certificate{c}, "site.gov.xx"); res.Code != verify.SelfSignedLeaf {
		t.Errorf("self-signed verdict = %v", res.Code)
	}
}

func TestBuildStoreCounts(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(108))
	for _, tc := range []struct {
		name   string
		counts StoreCounts
	}{
		{"apple", AppleCounts},
		{"microsoft", MicrosoftCounts},
		{"nss", NSSCounts},
	} {
		s := reg.BuildStore(tc.name, tc.counts, rng)
		if s.Len() != tc.counts.Roots {
			t.Errorf("%s roots = %d, want %d", tc.name, s.Len(), tc.counts.Roots)
		}
	}
}

func TestBuildDefaultStores(t *testing.T) {
	reg := newReg()
	stores := reg.BuildDefaultStores(rand.New(rand.NewSource(109)))
	if len(stores) != 3 {
		t.Fatalf("stores = %d", len(stores))
	}
	if stores["apple"].Len() >= stores["microsoft"].Len() {
		t.Error("Apple store should be smaller than Microsoft's")
	}
}

func TestDistrustedExcludedFromStores(t *testing.T) {
	reg := newReg()
	rng := rand.New(rand.NewSource(110))
	s := reg.BuildStore("apple", AppleCounts, rng)
	npki := reg.MustLookup("CA134100031")
	if s.Contains(npki.Root) {
		t.Error("distrusted NPKI root present in store")
	}
	le := reg.MustLookup("Let's Encrypt Authority X3")
	if !s.Contains(le.Root) {
		t.Error("Let's Encrypt root missing from store")
	}
}

func TestRegistryDeterminism(t *testing.T) {
	a := NewRegistry(rand.New(rand.NewSource(7)))
	b := NewRegistry(rand.New(rand.NewSource(7)))
	ca1 := a.MustLookup("Let's Encrypt Authority X3")
	ca2 := b.MustLookup("Let's Encrypt Authority X3")
	if ca1.Root.Fingerprint() != ca2.Root.Fingerprint() {
		t.Error("same seed produced different registries")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup(bogus) did not panic")
		}
	}()
	newReg().MustLookup("No Such CA")
}

func TestIssuePanicsWithoutHostnames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Issue without hostnames did not panic")
		}
	}()
	reg := newReg()
	reg.MustLookup("Let's Encrypt Authority X3").Issue(Request{})
}
