package dnssim

import (
	"errors"
	"net/netip"
	"testing"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestLookupA(t *testing.T) {
	z := NewZone()
	z.AddA("www.agency.gov", ip("192.0.2.10"))
	z.AddA("www.agency.gov", ip("192.0.2.11"))
	addrs, err := z.LookupA("www.agency.gov")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != ip("192.0.2.10") {
		t.Fatalf("addrs = %v; first address must be stable", addrs)
	}
}

func TestLookupACaseInsensitive(t *testing.T) {
	z := NewZone()
	z.AddA("WWW.Agency.GOV", ip("192.0.2.10"))
	if _, err := z.LookupA("www.agency.gov"); err != nil {
		t.Fatal(err)
	}
}

func TestNXDomain(t *testing.T) {
	z := NewZone()
	_, err := z.LookupA("missing.gov")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want NXDOMAIN", err)
	}
}

func TestServFail(t *testing.T) {
	z := NewZone()
	z.AddA("flaky.gov", ip("192.0.2.1"))
	z.SetServFail("flaky.gov", true)
	if _, err := z.LookupA("flaky.gov"); !errors.Is(err, ErrServFail) {
		t.Fatalf("err = %v, want SERVFAIL", err)
	}
	z.SetServFail("flaky.gov", false)
	if _, err := z.LookupA("flaky.gov"); err != nil {
		t.Fatalf("recovered lookup failed: %v", err)
	}
}

func TestRemove(t *testing.T) {
	z := NewZone()
	z.AddA("gone.gov", ip("192.0.2.1"))
	z.Remove("gone.gov")
	if _, err := z.LookupA("gone.gov"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v after removal", err)
	}
}

func TestCAAWalksUpTree(t *testing.T) {
	z := NewZone()
	z.AddCAA("agency.gov", CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	got := z.LookupCAA("deep.sub.agency.gov")
	if len(got) != 1 || got[0].Value != "letsencrypt.org" {
		t.Fatalf("LookupCAA = %v", got)
	}
	if z.LookupCAA("other.gov") != nil {
		t.Fatal("unrelated domain returned CAA records")
	}
}

func TestCAAClosestAncestorWins(t *testing.T) {
	z := NewZone()
	z.AddCAA("agency.gov", CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	z.AddCAA("sub.agency.gov", CAARecord{Tag: "issue", Value: "digicert.com"})
	got := z.LookupCAA("www.sub.agency.gov")
	if len(got) != 1 || got[0].Value != "digicert.com" {
		t.Fatalf("closest ancestor not preferred: %v", got)
	}
}

func TestAllowsIssuance(t *testing.T) {
	z := NewZone()
	if !z.AllowsIssuance("free.gov", "anyca.example") {
		t.Fatal("absent CAA must permit issuance")
	}
	z.AddCAA("locked.gov", CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	if !z.AllowsIssuance("www.locked.gov", "letsencrypt.org") {
		t.Fatal("authorized CA denied")
	}
	if z.AllowsIssuance("www.locked.gov", "digicert.com") {
		t.Fatal("unauthorized CA permitted")
	}
}

func TestCAACount(t *testing.T) {
	z := NewZone()
	z.AddA("a.gov", ip("192.0.2.1"))
	z.AddCAA("a.gov", CAARecord{Tag: "issue", Value: "letsencrypt.org"})
	z.AddCAA("b.gov", CAARecord{Tag: "issue", Value: "digicert.com"})
	z.AddCAA("bad.gov", CAARecord{Tag: "bogus", Value: "x"})
	with, valid := z.CAACount()
	if with != 3 || valid != 2 {
		t.Fatalf("CAACount = %d,%d; want 3,2", with, valid)
	}
}

func TestCAARecordValid(t *testing.T) {
	cases := []struct {
		r    CAARecord
		want bool
	}{
		{CAARecord{Tag: "issue", Value: "letsencrypt.org"}, true},
		{CAARecord{Tag: "issuewild", Value: "digicert.com"}, true},
		{CAARecord{Tag: "issue", Value: ""}, false},
		{CAARecord{Tag: "iodef", Value: "mailto:x@y"}, false},
	}
	for _, tc := range cases {
		if got := tc.r.Valid(); got != tc.want {
			t.Errorf("Valid(%+v) = %v, want %v", tc.r, got, tc.want)
		}
	}
}
