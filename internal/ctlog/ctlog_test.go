package ctlog

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
)

var logTime = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

func testCert(r *rand.Rand, host string) *cert.Certificate {
	key := cert.NewKey(r, cert.KeyRSA, 2048)
	c := &cert.Certificate{
		SerialNumber: r.Uint64(),
		Subject:      cert.Name{CommonName: host},
		Issuer:       cert.Name{CommonName: "CT Test CA"},
		DNSNames:     []string{host},
		NotBefore:    logTime,
		NotAfter:     logTime.AddDate(1, 0, 0),
		PublicKey:    key,
	}
	c.Sign(key.ID)
	return c
}

func buildLog(t *testing.T, n int) (*Log, []*cert.Certificate) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	l := NewSized("test-log", 0)
	var certs []*cert.Certificate
	for i := 0; i < n; i++ {
		c := testCert(r, hostN(i))
		certs = append(certs, c)
		l.Append(c, logTime.Add(time.Duration(i)*time.Minute))
	}
	return l, certs
}

func hostN(i int) string {
	return "host" + string(rune('a'+i%26)) + ".gov.xx"
}

func TestAppendAndSize(t *testing.T) {
	l, _ := buildLog(t, 10)
	if l.Size() != 10 {
		t.Fatalf("size = %d", l.Size())
	}
}

func TestRootChangesOnAppend(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	l := NewSized("test", 0)
	prev := l.Root()
	for i := 0; i < 8; i++ {
		l.Append(testCert(r, hostN(i)), logTime)
		cur := l.Root()
		if cur == prev {
			t.Fatalf("root unchanged after append %d", i)
		}
		prev = cur
	}
}

func TestRootDeterministic(t *testing.T) {
	a, _ := buildLog(t, 13)
	b, _ := buildLog(t, 13)
	if a.Root() != b.Root() {
		t.Fatal("identical logs have different roots")
	}
}

func TestInclusionProofsAllSizes(t *testing.T) {
	// Every (index, treeSize) combination must verify, across tree sizes
	// that exercise both perfect and ragged trees.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 21, 33} {
		l, certs := buildLog(t, n)
		for size := 1; size <= n; size++ {
			root, err := l.RootAt(size)
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < size; idx++ {
				proof, err := l.InclusionProof(idx, size)
				if err != nil {
					t.Fatalf("n=%d size=%d idx=%d: %v", n, size, idx, err)
				}
				leaf := LeafHash(certs[idx].Encode())
				if !VerifyInclusion(root, leaf, idx, size, proof) {
					t.Fatalf("n=%d size=%d idx=%d: proof rejected", n, size, idx)
				}
			}
		}
	}
}

func TestInclusionProofRejectsWrongLeaf(t *testing.T) {
	l, certs := buildLog(t, 12)
	root := l.Root()
	proof, _ := l.InclusionProof(3, 12)
	wrongLeaf := LeafHash(certs[4].Encode())
	if VerifyInclusion(root, wrongLeaf, 3, 12, proof) {
		t.Fatal("proof verified for the wrong leaf")
	}
	// Tampered proof fails.
	right := LeafHash(certs[3].Encode())
	if len(proof) > 0 {
		proof[0][0] ^= 0xFF
		if VerifyInclusion(root, right, 3, 12, proof) {
			t.Fatal("tampered proof verified")
		}
	}
}

func TestInclusionProofBounds(t *testing.T) {
	l, _ := buildLog(t, 4)
	if _, err := l.InclusionProof(4, 4); err != ErrIndexOutOfRange {
		t.Errorf("err = %v", err)
	}
	if _, err := l.InclusionProof(-1, 4); err != ErrIndexOutOfRange {
		t.Errorf("err = %v", err)
	}
	if _, err := l.InclusionProof(0, 9); err != ErrIndexOutOfRange {
		t.Errorf("oversize treeSize err = %v", err)
	}
}

func TestConsistencyProofsAllPairs(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 11, 16, 20} {
		l, _ := buildLog(t, n)
		for m := 1; m <= n; m++ {
			oldRoot, _ := l.RootAt(m)
			newRoot, _ := l.RootAt(n)
			proof, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			if !VerifyConsistency(oldRoot, newRoot, m, n, proof) {
				t.Fatalf("n=%d m=%d: consistency rejected", n, m)
			}
		}
	}
}

func TestConsistencyRejectsForkedLog(t *testing.T) {
	a, _ := buildLog(t, 9)
	// A different log of the same sizes is NOT consistent with a's head.
	b, _ := buildLog(t, 10) // different seed => different certs
	oldRoot, _ := a.RootAt(5)
	newRoot, _ := b.RootAt(9)
	proof, _ := a.ConsistencyProof(5, 9)
	if VerifyConsistency(oldRoot, newRoot, 5, 9, proof) {
		t.Fatal("consistency verified across forked logs")
	}
}

func TestMeasureCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	l := NewSized("test", 0)
	var logged, all []*cert.Certificate
	for i := 0; i < 20; i++ {
		c := testCert(r, hostN(i))
		all = append(all, c)
		if i%10 != 0 { // miss 10%
			l.Append(c, logTime)
			logged = append(logged, c)
		}
	}
	cov := l.MeasureCoverage(all)
	if cov.Total != 20 || cov.Logged != len(logged) {
		t.Fatalf("coverage = %+v", cov)
	}
	if cov.Pct() != 90 {
		t.Errorf("pct = %v", cov.Pct())
	}
}

func TestLeafHashDomainSeparation(t *testing.T) {
	// A leaf hash must never equal an interior node hash of the same data.
	a, b := LeafHash([]byte("x")), LeafHash([]byte("y"))
	if nodeHash(a, b) == LeafHash(append(a[:], b[:]...)) {
		t.Fatal("missing domain separation between leaves and nodes")
	}
}

func TestTailFrom(t *testing.T) {
	l, certs := buildLog(t, 7)

	// A zero cursor reads the whole log.
	entries, cursor := l.TailFrom(0)
	if len(entries) != 7 || cursor != 7 {
		t.Fatalf("TailFrom(0) = %d entries, cursor %d", len(entries), cursor)
	}
	for i, e := range entries {
		if e.Index != i || e.Cert != certs[i] {
			t.Fatalf("entry %d = index %d cert %p", i, e.Index, e.Cert)
		}
	}

	// A caught-up cursor returns nothing and stays put.
	entries, cursor = l.TailFrom(cursor)
	if len(entries) != 0 || cursor != 7 {
		t.Fatalf("caught-up tail = %d entries, cursor %d", len(entries), cursor)
	}

	// New appends show up exactly once on the next tail.
	r := rand.New(rand.NewSource(99))
	extra := testCert(r, "tail.gov.xx")
	l.Append(extra, logTime.Add(time.Hour))
	entries, cursor = l.TailFrom(cursor)
	if len(entries) != 1 || cursor != 8 {
		t.Fatalf("post-append tail = %d entries, cursor %d", len(entries), cursor)
	}
	if entries[0].Index != 7 || entries[0].Cert != extra {
		t.Fatalf("tailed entry = index %d", entries[0].Index)
	}

	// Negative and overshooting cursors clamp instead of panicking.
	if entries, _ := l.TailFrom(-5); len(entries) != 8 {
		t.Fatalf("negative cursor tailed %d entries", len(entries))
	}
	if entries, cursor := l.TailFrom(100); len(entries) != 0 || cursor != 8 {
		t.Fatalf("overshoot tail = %d entries, cursor %d", len(entries), cursor)
	}
}

func TestMeasureCoverageIncremental(t *testing.T) {
	l, certs := buildLog(t, 5)
	r := rand.New(rand.NewSource(42))
	unlogged := testCert(r, "missing.gov.xx")

	cov := l.MeasureCoverage(append([]*cert.Certificate{unlogged}, certs...))
	if cov.Total != 6 || cov.Logged != 5 {
		t.Fatalf("coverage = %d/%d", cov.Logged, cov.Total)
	}

	// Appending the missing certificate is reflected without a rebuild.
	l.Append(unlogged, logTime.Add(time.Hour))
	cov = l.MeasureCoverage([]*cert.Certificate{unlogged})
	if cov.Logged != 1 {
		t.Fatalf("post-append coverage = %d/%d", cov.Logged, cov.Total)
	}
}
