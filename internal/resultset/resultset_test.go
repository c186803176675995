package resultset_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hosting"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

var (
	testWorld = world.MustBuild(world.TestConfig())
	rawCache  []scanner.Result
	setCache  *resultset.Set
)

func testOptions() resultset.Options {
	return resultset.Options{CountryOf: testWorld.CountryOf}
}

func raw(t *testing.T) []scanner.Result {
	t.Helper()
	if rawCache == nil {
		s := scanner.New(testWorld.Net, testWorld.DNS, testWorld.Class,
			scanner.DefaultConfig(testWorld.Stores["apple"], testWorld.ScanTime))
		rawCache = s.ScanAll(context.Background(), testWorld.GovHosts)
	}
	return rawCache
}

func set(t *testing.T) *resultset.Set {
	t.Helper()
	if setCache == nil {
		setCache = resultset.New(raw(t), testOptions())
	}
	return setCache
}

func TestResultsPreserveInputOrder(t *testing.T) {
	s, rs := set(t), raw(t)
	if s.Len() != len(rs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(rs))
	}
	for i := range rs {
		if s.At(i).Hostname != rs[i].Hostname {
			t.Fatalf("result %d reordered: %q vs %q", i, s.At(i).Hostname, rs[i].Hostname)
		}
	}
}

func TestLookupEveryHost(t *testing.T) {
	s, rs := set(t), raw(t)
	for i := range rs {
		r, ok := s.Lookup(rs[i].Hostname)
		if !ok || r.Hostname != rs[i].Hostname {
			t.Fatalf("Lookup(%q) failed", rs[i].Hostname)
		}
	}
	if _, ok := s.Lookup("definitely-not-scanned.example"); ok {
		t.Error("Lookup invented a host")
	}
}

func TestCountsMatchNaiveWalk(t *testing.T) {
	s, rs := set(t), raw(t)
	var want resultset.Counts
	for i := range rs {
		r := &rs[i]
		cat := r.Category()
		if cat == scanner.CatUnavailable {
			want.Unavailable++
			continue
		}
		want.Total++
		switch {
		case cat == scanner.CatHTTPOnly:
			want.HTTPOnly++
			continue
		case cat == scanner.CatValid:
			want.HTTPS++
			want.Valid++
			if r.HSTS {
				want.HSTS++
			}
		default:
			want.HTTPS++
			want.Invalid++
			if cat.IsException() {
				want.Exceptions++
			}
		}
		if r.ServesHTTP && r.ServesHTTPS {
			want.BothSchemes++
		}
	}
	if got := s.Counts(); got != want {
		t.Errorf("Counts = %+v, want %+v", got, want)
	}
}

// TestCategoryBucketsPartitionCorpus: every result lands in exactly one category
// bucket, buckets hold ascending indices, and the union is the corpus.
func TestCategoryBucketsPartitionCorpus(t *testing.T) {
	s := set(t)
	seen := make([]bool, s.Len())
	total := 0
	for _, cat := range s.Categories() {
		idxs := s.ByCategory(cat)
		if len(idxs) != s.CategoryCount(cat) {
			t.Fatalf("category %v: count %d != len %d", cat, s.CategoryCount(cat), len(idxs))
		}
		for j, i := range idxs {
			if j > 0 && idxs[j-1] >= i {
				t.Fatalf("category %v indices not ascending", cat)
			}
			if seen[i] {
				t.Fatalf("result %d in two categories", i)
			}
			seen[i] = true
			if s.At(i).Category() != cat {
				t.Fatalf("result %d misfiled under %v", i, cat)
			}
			total++
		}
	}
	if total != s.Len() {
		t.Errorf("categories cover %d of %d results", total, s.Len())
	}
}

func TestCountryIndexMatchesAttribution(t *testing.T) {
	s := set(t)
	ccs := s.Countries()
	if !sort.StringsAreSorted(ccs) {
		t.Fatal("Countries not sorted")
	}
	covered := 0
	for _, cc := range ccs {
		for _, i := range s.ByCountry(cc) {
			if got := testWorld.CountryOf(s.At(i).Hostname); got != cc {
				t.Fatalf("host %q filed under %q, attributed to %q", s.At(i).Hostname, cc, got)
			}
			covered++
		}
	}
	uncovered := 0
	for i := 0; i < s.Len(); i++ {
		if testWorld.CountryOf(s.At(i).Hostname) == "" {
			uncovered++
		}
	}
	if covered+uncovered != s.Len() {
		t.Errorf("country index covers %d + %d unattributed of %d", covered, uncovered, s.Len())
	}

	aggs := s.CountryAggs()
	if len(aggs) != len(ccs) {
		t.Fatalf("aggs for %d countries, index has %d", len(aggs), len(ccs))
	}
	for _, agg := range aggs {
		var want resultset.CountryAgg
		want.Country = agg.Country
		for _, i := range s.ByCountry(agg.Country) {
			r := s.At(i)
			want.Hosts++
			if r.Available {
				want.Available++
				if r.HasHTTPS() {
					want.HTTPS++
				}
				if r.ValidHTTPS() {
					want.Valid++
				}
			}
		}
		if agg != want {
			t.Errorf("agg %q = %+v, want %+v", agg.Country, agg, want)
		}
	}
}

func TestChainIndexesMatchNaive(t *testing.T) {
	s, rs := set(t), raw(t)

	chained, analyzed := 0, 0
	for i := range rs {
		if len(rs[i].Chain) == 0 {
			continue
		}
		chained++
		leaf := rs[i].Chain[0]
		if leaf.Issuer.CommonName != "" {
			analyzed++
		}
		fpIdxs := s.ByFingerprint(leaf.Fingerprint())
		if !containsInt(fpIdxs, i) {
			t.Fatalf("result %d missing from its fingerprint bucket", i)
		}
		if !containsInt(s.ByKeyID(leaf.PublicKey.ID), i) {
			t.Fatalf("result %d missing from its key bucket", i)
		}
	}
	if len(s.Chained()) != chained {
		t.Errorf("Chained = %d, want %d", len(s.Chained()), chained)
	}
	if s.IssuerAnalyzed() != analyzed {
		t.Errorf("IssuerAnalyzed = %d, want %d", s.IssuerAnalyzed(), analyzed)
	}

	issuerTotal := 0
	for _, cn := range s.Issuers() {
		for _, i := range s.ByIssuer(cn) {
			if rs[i].Chain[0].Issuer.CommonName != cn {
				t.Fatalf("result %d filed under issuer %q", i, cn)
			}
			issuerTotal++
		}
	}
	if issuerTotal != analyzed {
		t.Errorf("issuer buckets hold %d results, want %d", issuerTotal, analyzed)
	}
}

func TestInvalidHostsInInputOrder(t *testing.T) {
	s, rs := set(t), raw(t)
	var want []string
	for i := range rs {
		if rs[i].Category().IsInvalidHTTPS() {
			want = append(want, rs[i].Hostname)
		}
	}
	if !reflect.DeepEqual(s.InvalidHosts(), want) {
		t.Errorf("InvalidHosts diverges from the naive input-order walk")
	}
}

// TestAssembleMatchesNew: assembling the corpus from overlapping sources
// in host order equals New over the scan, on every accessor. The first
// source listing a host wins, so a stale later copy of a row is ignored.
func TestAssembleMatchesNew(t *testing.T) {
	rs := raw(t)
	hosts := make([]string, len(rs))
	for i := range rs {
		hosts[i] = rs[i].Hostname
	}
	mid := len(rs) / 2
	stale := make([]scanner.Result, mid)
	for i := range stale {
		stale[i] = scanner.Result{Hostname: rs[i].Hostname}
	}
	got, err := resultset.Assemble(hosts, testOptions(), rs[mid:], rs[:mid], stale)
	if err != nil {
		t.Fatal(err)
	}
	assertSetsEqual(t, got, set(t))
}

// TestAssembleMissingHost: a host no source lists is an error.
func TestAssembleMissingHost(t *testing.T) {
	rs := raw(t)[:3]
	hosts := []string{rs[0].Hostname, "absent.example", rs[2].Hostname}
	if _, err := resultset.Assemble(hosts, resultset.Options{}, rs); err == nil {
		t.Fatal("Assemble succeeded with a host missing from every source")
	}
	if s, err := resultset.Assemble(nil, resultset.Options{}); err != nil || s.Len() != 0 {
		t.Fatalf("empty Assemble = (%v, %v), want an empty set", s, err)
	}
}

// TestRebuildDeterministic: two builds over the same results expose
// identical key orders — the property govlint's maprange scope protects.
func TestRebuildDeterministic(t *testing.T) {
	rs := raw(t)
	a := resultset.New(rs, testOptions())
	b := resultset.New(rs, testOptions())
	if !reflect.DeepEqual(a.Issuers(), b.Issuers()) ||
		!reflect.DeepEqual(a.Providers(), b.Providers()) ||
		!reflect.DeepEqual(a.Categories(), b.Categories()) ||
		!reflect.DeepEqual(a.KeyIDs(), b.KeyIDs()) ||
		!reflect.DeepEqual(a.VersionCells(), b.VersionCells()) {
		t.Error("rebuild changed an index key order")
	}
}

func containsInt(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// assertSetsEqual compares every accessor of two Sets.
func assertSetsEqual(t *testing.T, got, want *resultset.Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i).Hostname != want.At(i).Hostname {
			t.Fatalf("result %d reordered: %q vs %q", i, got.At(i).Hostname, want.At(i).Hostname)
		}
	}
	if !reflect.DeepEqual(got.Counts(), want.Counts()) {
		t.Errorf("Counts diverge: %+v vs %+v", got.Counts(), want.Counts())
	}
	if !reflect.DeepEqual(got.Categories(), want.Categories()) {
		t.Errorf("category order diverges: %v vs %v", got.Categories(), want.Categories())
	}
	for _, cat := range want.Categories() {
		if !reflect.DeepEqual(got.ByCategory(cat), want.ByCategory(cat)) {
			t.Errorf("ByCategory(%v) diverges", cat)
		}
	}
	if !reflect.DeepEqual(got.Exceptions(), want.Exceptions()) {
		t.Errorf("exception order diverges")
	}
	for _, e := range want.Exceptions() {
		if !reflect.DeepEqual(got.ByException(e), want.ByException(e)) {
			t.Errorf("ByException(%v) diverges", e)
		}
	}
	if !reflect.DeepEqual(got.Countries(), want.Countries()) {
		t.Errorf("country order diverges")
	}
	for _, cc := range want.Countries() {
		if !reflect.DeepEqual(got.ByCountry(cc), want.ByCountry(cc)) {
			t.Errorf("ByCountry(%q) diverges", cc)
		}
	}
	if !reflect.DeepEqual(got.CountryAggs(), want.CountryAggs()) {
		t.Errorf("country aggregates diverge")
	}
	if !reflect.DeepEqual(got.Issuers(), want.Issuers()) {
		t.Errorf("issuer order diverges")
	}
	for _, cn := range want.Issuers() {
		if !reflect.DeepEqual(got.ByIssuer(cn), want.ByIssuer(cn)) {
			t.Errorf("ByIssuer(%q) diverges", cn)
		}
	}
	if got.IssuerAnalyzed() != want.IssuerAnalyzed() {
		t.Errorf("IssuerAnalyzed = %d, want %d", got.IssuerAnalyzed(), want.IssuerAnalyzed())
	}
	if !reflect.DeepEqual(got.Fingerprints(), want.Fingerprints()) {
		t.Errorf("fingerprint order diverges")
	}
	for _, fp := range want.Fingerprints() {
		if !reflect.DeepEqual(got.ByFingerprint(fp), want.ByFingerprint(fp)) {
			t.Errorf("ByFingerprint diverges")
			break
		}
	}
	if !reflect.DeepEqual(got.KeyIDs(), want.KeyIDs()) {
		t.Errorf("key-ID order diverges")
	}
	for _, id := range want.KeyIDs() {
		if !reflect.DeepEqual(got.ByKeyID(id), want.ByKeyID(id)) {
			t.Errorf("ByKeyID diverges")
			break
		}
	}
	if !reflect.DeepEqual(got.Providers(), want.Providers()) {
		t.Errorf("provider order diverges")
	}
	for _, p := range want.Providers() {
		if !reflect.DeepEqual(got.ByProvider(p), want.ByProvider(p)) {
			t.Errorf("ByProvider(%q) diverges", p)
		}
	}
	kinds := map[hosting.Kind]bool{}
	var kindOrder []hosting.Kind
	rs := want.Results()
	for i := range rs {
		if rs[i].Available && !kinds[rs[i].HostKind] {
			kinds[rs[i].HostKind] = true
			kindOrder = append(kindOrder, rs[i].HostKind)
		}
	}
	for _, k := range kindOrder {
		if !reflect.DeepEqual(got.ByKind(k), want.ByKind(k)) {
			t.Errorf("ByKind(%v) diverges", k)
		}
	}
	if !reflect.DeepEqual(got.Chained(), want.Chained()) {
		t.Errorf("Chained diverges")
	}
	if !reflect.DeepEqual(got.InvalidHosts(), want.InvalidHosts()) {
		t.Errorf("InvalidHosts diverge")
	}
	if !reflect.DeepEqual(got.FailedUpgrades(), want.FailedUpgrades()) {
		t.Errorf("FailedUpgrades diverge")
	}
	if !reflect.DeepEqual(got.HostKeyCells(), want.HostKeyCells()) {
		t.Errorf("host-key cells diverge")
	}
	if !reflect.DeepEqual(got.SigAlgoCells(), want.SigAlgoCells()) {
		t.Errorf("signature cells diverge")
	}
	if !reflect.DeepEqual(got.CombinedCells(), want.CombinedCells()) {
		t.Errorf("combined cells diverge")
	}
	if !reflect.DeepEqual(got.VersionCells(), want.VersionCells()) {
		t.Errorf("version cells diverge")
	}
	for i := range rs {
		r, ok := got.Lookup(rs[i].Hostname)
		if !ok || r.Hostname != rs[i].Hostname {
			t.Fatalf("merged Lookup(%q) failed", rs[i].Hostname)
		}
	}
}
