package core

import (
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// TestDatasetNamesCoverCorpora: the registry carries the paper's full
// dataset vocabulary.
func TestDatasetNamesCoverCorpora(t *testing.T) {
	s := MustNewStudy(world.TestConfig())
	names := s.DatasetNames()
	if names[0] != "worldwide" {
		t.Errorf("first dataset = %q, want worldwide", names[0])
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	if !got["usa:all"] || !got["rok"] {
		t.Fatalf("registry missing case-study corpora: %v", names)
	}
	for _, ds := range s.World.USA.Datasets {
		if !got["usa:"+ds.Key] {
			t.Errorf("GSA dataset %q not registered", ds.Key)
		}
	}
	if _, err := s.Dataset(context.Background(), "atlantis"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestUSAAllMatchesUnionScan: usa:all, assembled from the per-key GSA
// sets instead of scanned, equals a plain scan of their union in
// AllHosts order, row for row.
func TestUSAAllMatchesUnionScan(t *testing.T) {
	for _, cfg := range []world.Config{world.TestConfig(), {Seed: 3, Scale: 0.05}} {
		s := MustNewStudy(cfg)
		ctx := context.Background()
		sc := scanner.New(s.World.Net, s.World.DNS, s.World.Class, scanner.DefaultConfig(s.Store(), s.World.ScanTime))
		want := resultset.New(sc.ScanAll(ctx, s.World.USA.AllHosts()), s.indexOptions())
		if err := sameSet(s.USAAll(ctx), want); err != nil {
			t.Fatalf("seed %d scale %g: %v", cfg.Seed, cfg.Scale, err)
		}
		t.Logf("seed %d scale %g: %d equal rows", cfg.Seed, cfg.Scale, want.Len())
	}
}

// TestUseStoreInvalidatesEveryDatasetOnce: a trust-store switch drops
// every dataset exactly once; a no-op switch drops nothing.
func TestUseStoreInvalidatesEveryDatasetOnce(t *testing.T) {
	s := MustNewStudy(world.TestConfig())
	ctx := context.Background()
	s.Worldwide(ctx)
	s.ROK(ctx)

	if err := s.UseStore("apple"); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.DatasetNames() {
		if got := s.DatasetInvalidations(name); got != 0 {
			t.Errorf("no-op store switch invalidated %q %d times", name, got)
		}
	}

	if err := s.UseStore("nss"); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.DatasetNames() {
		if got := s.DatasetInvalidations(name); got != 1 {
			t.Errorf("dataset %q invalidated %d times after one switch, want exactly 1", name, got)
		}
	}
	if err := s.UseStore("bogus"); err == nil {
		t.Error("unknown store accepted")
	}
}

// TestStoreSwitchRescansBitIdentical: switching stores away and back
// re-scans, and the rescan under the original store reproduces the first
// scan bit for bit.
func TestStoreSwitchRescansBitIdentical(t *testing.T) {
	s := MustNewStudy(world.TestConfig())
	ctx := context.Background()

	first := s.Worldwide(ctx)
	if err := s.UseStore("microsoft"); err != nil {
		t.Fatal(err)
	}
	other := s.Worldwide(ctx)
	if other == first {
		t.Fatal("store switch did not rescan")
	}
	if err := s.UseStore("apple"); err != nil {
		t.Fatal(err)
	}
	again := s.Worldwide(ctx)
	if again == first {
		t.Fatal("rescan returned the invalidated set")
	}

	if again.Len() != first.Len() {
		t.Fatalf("rescan %d results, want %d", again.Len(), first.Len())
	}
	for i := 0; i < first.Len(); i++ {
		a, b := first.At(i), again.At(i)
		if a.Hostname != b.Hostname || a.Category() != b.Category() ||
			a.Exception != b.Exception || a.HSTS != b.HSTS || a.Attempts != b.Attempts {
			t.Fatalf("host %d (%q) differs across same-store re-scans", i, a.Hostname)
		}
	}
	if first.Counts() != again.Counts() {
		t.Errorf("counts diverge: %+v vs %+v", first.Counts(), again.Counts())
	}
}

// TestDatasetRaceUnderStoreSwitches hammers Get and UseStore from 64
// goroutines; with -race this is the study cache's soundness proof.
func TestDatasetRaceUnderStoreSwitches(t *testing.T) {
	if testing.Short() {
		t.Skip("scan-heavy")
	}
	cfg := world.TestConfig()
	cfg.Scale = cfg.Scale / 4
	s := MustNewStudy(cfg)
	ctx := context.Background()
	names := s.DatasetNames()
	stores := []string{"apple", "microsoft", "nss"}

	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%8 == 0 {
					if err := s.UseStore(stores[(g+i)%len(stores)]); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				set, err := s.Dataset(ctx, names[(g+i)%len(names)])
				if err != nil {
					t.Error(err)
					return
				}
				if set.Len() == 0 {
					t.Error("empty dataset")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if err := s.UseStore("apple"); err != nil {
		t.Fatal(err)
	}
	if s.Worldwide(ctx).Len() != len(s.World.GovHosts) {
		t.Error("worldwide dataset corrupted by concurrent switches")
	}
}

// TestExperimentsMatchGolden is the suite's differential proof: the full
// registry, run through RunAllExperiments and framed by
// report.WriteArtifact exactly as govreport -all writes it, must be
// byte-identical to the committed golden transcript at the same seed.
func TestExperimentsMatchGolden(t *testing.T) {
	got := suiteTranscript(t, MustNewStudy(world.TestConfig()))

	const goldenPath = "../../results/golden_experiments_seed74.txt"
	if os.Getenv("GOVHTTPS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("golden transcript rewritten (%d bytes)", len(got))
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	if got != string(golden) {
		diffAt := firstDiff(got, string(golden))
		lo := diffAt - 200
		if lo < 0 {
			lo = 0
		}
		hiG, hiW := diffAt+200, diffAt+200
		if hiG > len(got) {
			hiG = len(got)
		}
		if hiW > len(golden) {
			hiW = len(golden)
		}
		t.Fatalf("experiment transcript diverges from golden at byte %d:\n--- got ---\n%s\n--- want ---\n%s",
			diffAt, got[lo:hiG], golden[lo:hiW])
	}
}
