package dataset_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/resultset"
	"repro/internal/scanner"
)

// fakeScan builds a set directly from the hostnames, counting invocations.
func fakeScan(scans *atomic.Int64) dataset.ScanFunc {
	return func(_ context.Context, hosts []string, opts resultset.Options) *resultset.Set {
		scans.Add(1)
		rs := make([]scanner.Result, len(hosts))
		for i, h := range hosts {
			rs[i] = scanner.Result{Hostname: h}
		}
		return resultset.New(rs, opts)
	}
}

func newTestRegistry(scans *atomic.Int64, names ...string) *dataset.Registry {
	r := dataset.NewRegistry(fakeScan(scans))
	for _, name := range names {
		n := name
		r.Register(dataset.Source{
			Name:  n,
			Hosts: func() []string { return []string{n + ".gov"} },
			Opts:  func() resultset.Options { return resultset.Options{} },
		})
	}
	return r
}

func TestGetLazyAndMemoized(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "a", "b")
	ctx := context.Background()

	if scans.Load() != 0 {
		t.Fatal("registration triggered a scan")
	}
	if r.Cached("a") {
		t.Fatal("dataset cached before first Get")
	}
	s1, err := r.Get(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Get(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second Get rebuilt the set instead of returning the memoized one")
	}
	if got := scans.Load(); got != 1 {
		t.Errorf("scans = %d, want 1", got)
	}
	if !r.Cached("a") || r.Cached("b") {
		t.Error("cache state wrong: only dataset a was scanned")
	}
	if h, _ := s1.Lookup("a.gov"); h == nil {
		t.Error("scanned set missing its host")
	}
}

func TestGetUnknownName(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "a")
	if _, err := r.Get(context.Background(), "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register(dataset.Source{Name: "a"})
}

func TestNamesInRegistrationOrder(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "w", "a", "m")
	names := r.Names()
	if len(names) != 3 || names[0] != "w" || names[1] != "a" || names[2] != "m" {
		t.Errorf("Names = %v, want registration order [w a m]", names)
	}
	if !r.Has("a") || r.Has("zz") {
		t.Error("Has misreports registration")
	}
}

func TestInvalidateForcesRescan(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "a")
	ctx := context.Background()

	s1, _ := r.Get(ctx, "a")
	if !r.Invalidate("a") {
		t.Fatal("Invalidate rejected a known dataset")
	}
	if r.Cached("a") {
		t.Error("dataset still cached after Invalidate")
	}
	s2, _ := r.Get(ctx, "a")
	if s1 == s2 {
		t.Error("Get returned the invalidated set")
	}
	if got := scans.Load(); got != 2 {
		t.Errorf("scans = %d, want 2", got)
	}
	if r.Invalidate("zz") {
		t.Error("Invalidate accepted an unknown dataset")
	}
}

func TestInvalidateAllExactlyOnce(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "a", "b", "c")
	ctx := context.Background()
	r.Get(ctx, "a")
	r.Get(ctx, "b")

	r.InvalidateAll()
	for _, name := range r.Names() {
		if got := r.Invalidations(name); got != 1 {
			t.Errorf("dataset %q invalidated %d times, want exactly 1", name, got)
		}
		if r.Cached(name) {
			t.Errorf("dataset %q still cached after InvalidateAll", name)
		}
	}
}

// TestConcurrentGetSingleFlight: many concurrent Gets of a cold dataset
// share one scan.
func TestConcurrentGetSingleFlight(t *testing.T) {
	var scans atomic.Int64
	release := make(chan struct{})
	r := dataset.NewRegistry(func(_ context.Context, hosts []string, opts resultset.Options) *resultset.Set {
		scans.Add(1)
		<-release
		return resultset.New([]scanner.Result{{Hostname: hosts[0]}}, opts)
	})
	r.Register(dataset.Source{
		Name:  "a",
		Hosts: func() []string { return []string{"a.gov"} },
		Opts:  func() resultset.Options { return resultset.Options{} },
	})

	const n = 16
	sets := make([]*resultset.Set, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			s, err := r.Get(context.Background(), "a")
			if err != nil {
				t.Error(err)
			}
			sets[i] = s
		}(i)
	}
	close(release)
	wg.Wait()

	if got := scans.Load(); got != 1 {
		t.Errorf("concurrent Gets ran %d scans, want 1", got)
	}
	for i := 1; i < n; i++ {
		if sets[i] != sets[0] {
			t.Fatal("concurrent Gets returned different sets")
		}
	}
}

// TestInvalidateMidScanDiscards: a scan whose dataset is invalidated while
// in flight must be discarded, not cached under the stale generation.
func TestInvalidateMidScanDiscards(t *testing.T) {
	var scans atomic.Int64
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	r := dataset.NewRegistry(func(_ context.Context, hosts []string, opts resultset.Options) *resultset.Set {
		n := scans.Add(1)
		if n == 1 {
			started <- struct{}{}
			<-release // hold the first scan until the test invalidates
		}
		return resultset.New([]scanner.Result{{Hostname: hosts[0]}}, opts)
	})
	r.Register(dataset.Source{
		Name:  "a",
		Hosts: func() []string { return []string{"a.gov"} },
		Opts:  func() resultset.Options { return resultset.Options{} },
	})

	done := make(chan *resultset.Set)
	go func() {
		s, err := r.Get(context.Background(), "a")
		if err != nil {
			t.Error(err)
		}
		done <- s
	}()

	<-started
	r.Invalidate("a") // dooms the in-flight scan
	close(release)
	got := <-done

	if n := scans.Load(); n != 2 {
		t.Errorf("scans = %d, want 2 (stale scan dropped, fresh scan run)", n)
	}
	if got == nil {
		t.Fatal("Get returned nil")
	}
	if !r.Cached("a") {
		t.Error("fresh result not cached")
	}
}

// TestGetInvalidateRace hammers Get and Invalidate from many goroutines;
// run under -race this is the registry's memory-safety proof.
func TestGetInvalidateRace(t *testing.T) {
	var scans atomic.Int64
	r := newTestRegistry(&scans, "a", "b", "c")
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := r.Names()[g%3]
			for i := 0; i < 25; i++ {
				switch {
				case g%8 == 0 && i%10 == 9:
					r.InvalidateAll()
				case g%4 == 0 && i%5 == 4:
					r.Invalidate(name)
				default:
					if _, err := r.Get(ctx, name); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The registry must still serve every dataset afterwards.
	for _, name := range r.Names() {
		if _, err := r.Get(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
}
