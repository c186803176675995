package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/resultset"
	"repro/internal/serve"
	"repro/internal/world"
)

var (
	studyOnce sync.Once
	study     *core.Study
	studySet  *resultset.Set
)

// serveStudy returns a shared warm study (and its worldwide set) for the
// read-only tests; tests that churn the registry build their own.
func serveStudy(t *testing.T) (*core.Study, *resultset.Set) {
	t.Helper()
	studyOnce.Do(func() {
		study = core.MustNewStudy(world.TestConfig())
		set, err := study.Dataset(context.Background(), "worldwide")
		if err != nil {
			panic(err)
		}
		studySet = set
	})
	return study, studySet
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// endpointMenu derives one concrete request per endpoint (plus paging,
// not-found, and bad-request variants) from whatever the warm set
// actually contains.
func endpointMenu(set *resultset.Set) []string {
	cc := set.Countries()[0]
	iss := url.QueryEscape(set.Issuers()[0])
	cat := url.QueryEscape(set.Categories()[0].String())
	host := url.QueryEscape(set.At(0).Hostname)
	return []string{
		"/v1/table2",
		"/v1/countries",
		"/v1/country?cc=" + cc,
		"/v1/country?cc=" + cc + "&offset=1&limit=2",
		"/v1/issuers",
		"/v1/issuer?cn=" + iss,
		"/v1/issuer?cn=" + iss + "&limit=3",
		"/v1/category?cat=" + cat,
		"/v1/category?cat=" + cat + "&offset=2&limit=4",
		"/v1/host?name=" + host,
		"/v1/export?limit=25",
		"/v1/export?offset=3&limit=5",
		"/v1/datasets",
		// Not-found and bad-request variants must also match bytes.
		"/v1/country?cc=ZZ-nowhere",
		"/v1/issuer?cn=No+Such+CA",
		"/v1/category?cat=no-such-category",
		"/v1/host?name=no-such-host.gov.example",
		"/v1/country",
		"/v1/country?cc=" + cc + "&offset=bogus",
	}
}

// TestDifferentialCacheOnOff is the determinism contract: every
// endpoint's status and body must be byte-identical with the response
// cache enabled (both the filling miss and the subsequent hit) and
// disabled.
func TestDifferentialCacheOnOff(t *testing.T) {
	s, set := serveStudy(t)
	cached := serve.New(s.Registry(), serve.Config{})
	uncached := serve.New(s.Registry(), serve.Config{CacheDisabled: true})

	for i, path := range endpointMenu(set) {
		miss := get(t, cached.Handler(), path)
		hit := get(t, cached.Handler(), path)
		plain := get(t, uncached.Handler(), path)

		// The first 13 menu entries are well-formed queries over data the
		// set provably contains; consistent-but-wrong 404s must not pass.
		if i < 13 && plain.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, plain.Code)
			continue
		}
		if miss.Code != plain.Code || hit.Code != plain.Code {
			t.Errorf("%s: status cached=%d/%d uncached=%d", path, miss.Code, hit.Code, plain.Code)
			continue
		}
		if !bytes.Equal(miss.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: cache-miss body differs from uncached\nmiss: %s\nplain: %s",
				path, miss.Body.Bytes(), plain.Body.Bytes())
		}
		if !bytes.Equal(hit.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: cache-hit body differs from uncached", path)
		}
		if miss.Code == http.StatusOK && path != "/v1/datasets" && !isExport(path) {
			if got := hit.Header().Get("X-Cache"); got != "hit" {
				t.Errorf("%s: second request X-Cache = %q, want hit", path, got)
			}
		}
	}
}

func isExport(path string) bool { return len(path) >= 10 && path[:10] == "/v1/export" }

// TestExportMatchesCorpus checks streamed JSONL windows against the
// set's own zero-copy serialization, including a limit so large that
// offset+limit overflows an int.
func TestExportMatchesCorpus(t *testing.T) {
	s, set := serveStudy(t)
	srv := serve.New(s.Registry(), serve.Config{})

	for _, tc := range []struct {
		query    string
		from, to int
	}{
		{"offset=2&limit=3", 2, 5},
		{"offset=1&limit=" + strconv.Itoa(math.MaxInt), 1, set.Len()},
	} {
		rec := get(t, srv.Handler(), "/v1/export?"+tc.query)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: export status %d", tc.query, rec.Code)
		}
		var want []byte
		for i := tc.from; i < tc.to; i++ {
			want = set.At(i).AppendRecord(want)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: export of %d bytes differs from AppendRecord over rows [%d, %d)",
				tc.query, rec.Body.Len(), tc.from, tc.to)
		}
		if got := rec.Header().Get("X-Total-Count"); got != strconv.Itoa(set.Len()) {
			t.Fatalf("%s: X-Total-Count = %s, want %d", tc.query, got, set.Len())
		}
	}
}

// TestUncachedNotFoundKeepsPooledBuffer: a builder that answers 404
// returns no body, and the pooled body buffer must keep its capacity, so
// a 200 after a 404 costs no more than a 200 after a 200.
func TestUncachedNotFoundKeepsPooledBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items")
	}
	s, _ := serveStudy(t)
	h := serve.New(s.Registry(), serve.Config{CacheDisabled: true}).Handler()
	serveOne := func(path string, want int) func() {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != want {
				t.Fatalf("%s: status %d, want %d", path, rec.Code, want)
			}
		}
	}
	notFound := serveOne("/v1/country?cc=ZZ-nowhere", http.StatusNotFound)
	ok := serveOne("/v1/countries", http.StatusOK)
	ok()
	a404 := testing.AllocsPerRun(50, notFound)
	a200 := testing.AllocsPerRun(50, ok)
	pair := testing.AllocsPerRun(50, func() { notFound(); ok() })
	t.Logf("allocs: 404 %.1f, 200 %.1f, 404 then 200 %.1f", a404, a200, pair)
	if pair > a404+a200+0.5 {
		t.Fatalf("a 200 after a 404 allocates %.1f more than a 200 after a 200: the 404 dropped the pooled buffer",
			pair-a404-a200)
	}
}

// TestPageCapNoOverflow: a page cap so large that offset+limit overflows
// an int lists the same hosts as a cap that just covers the corpus.
func TestPageCapNoOverflow(t *testing.T) {
	s, set := serveStudy(t)
	path := "/v1/country?cc=" + set.Countries()[0] + "&offset=1"
	huge := get(t, serve.New(s.Registry(), serve.Config{PageLimit: math.MaxInt}).Handler(), path)
	covering := get(t, serve.New(s.Registry(), serve.Config{PageLimit: set.Len()}).Handler(), path)
	if huge.Code != http.StatusOK || !bytes.Equal(huge.Body.Bytes(), covering.Body.Bytes()) {
		t.Fatalf("page cap MaxInt: status %d, body %q; want the body %q", huge.Code, huge.Body.Bytes(), covering.Body.Bytes())
	}
}

// TestSingleFlightStampede aims 64 goroutines at one uncached aggregate:
// exactly one fill may run; everyone must get the same bytes.
func TestSingleFlightStampede(t *testing.T) {
	s, _ := serveStudy(t)
	srv := serve.New(s.Registry(), serve.Config{})

	const n = 64
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := get(t, srv.Handler(), "/v1/table2")
			if rec.Code != http.StatusOK {
				t.Errorf("stampede request %d: status %d", i, rec.Code)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()

	st := srv.CacheStats()
	if st.Fills != 1 {
		t.Fatalf("cold-cache stampede ran %d fills, want exactly 1 (stats %+v)", st.Fills, st)
	}
	if st.Hits+st.Waits != n-1 {
		t.Fatalf("hits(%d)+waits(%d) = %d, want %d", st.Hits, st.Waits, st.Hits+st.Waits, n-1)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("stampede response %d differs from response 0", i)
		}
	}
}

// blockWriter is a ResponseWriter whose first body write parks until
// released — it holds a concurrency slot open deterministically so the
// backpressure test can observe the fast-fail path.
type blockWriter struct {
	hdr     http.Header
	entered chan struct{}
	release chan struct{}
}

func (b *blockWriter) Header() http.Header { return b.hdr }
func (b *blockWriter) WriteHeader(int)     {}
func (b *blockWriter) Write(p []byte) (int, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return len(p), nil
}

// TestBackpressureFastFail drives both endpoint classes past their
// budget and asserts the 503 + Retry-After contract.
func TestBackpressureFastFail(t *testing.T) {
	s, _ := serveStudy(t)
	srv := serve.New(s.Registry(), serve.Config{
		QueryConcurrency:  1,
		ExportConcurrency: 1,
	})

	for _, tc := range []struct {
		name, holdPath, probePath string
	}{
		{"query", "/v1/table2", "/v1/countries"},
		{"export", "/v1/export", "/v1/export?limit=1"},
	} {
		bw := &blockWriter{
			hdr:     make(http.Header),
			entered: make(chan struct{}, 1),
			release: make(chan struct{}),
		}
		done := make(chan struct{})
		go func() {
			srv.Handler().ServeHTTP(bw, httptest.NewRequest(http.MethodGet, tc.holdPath, nil))
			close(done)
		}()
		<-bw.entered // the holder owns the slot and is parked mid-write

		rec := get(t, srv.Handler(), tc.probePath)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s over capacity: status %d, want 503", tc.name, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s 503 carries no Retry-After", tc.name)
		}
		close(bw.release)
		<-done
	}
	q, e := srv.Rejected()
	if q != 1 || e != 1 {
		t.Fatalf("rejected counters = query %d, export %d; want 1, 1", q, e)
	}
}

// generationStamp returns the generation a response was pinned on: the
// export's X-Generation header, or the "generation" an aggregate or
// lookup body opens with. ok is false for a response without one
// (/v1/datasets reports every dataset's current generation instead).
func generationStamp(rec *httptest.ResponseRecorder) (gen int, ok bool) {
	if h := rec.Header().Get("X-Generation"); h != "" {
		n, err := strconv.Atoi(h)
		return n, err == nil
	}
	body := rec.Body.Bytes()
	if !bytes.HasPrefix(body, []byte(`{"dataset":`)) {
		return 0, false
	}
	const field = `"generation":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	digits := body[i+len(field):]
	n := 0
	for n < len(digits) && digits[n] >= '0' && digits[n] <= '9' {
		n++
	}
	g, err := strconv.Atoi(string(digits[:n]))
	return g, err == nil
}

// TestServeAgainstLiveApplyDelta hammers every endpoint while a writer
// loops MarkDirty+Get patch cycles on the same registry — the snapshot
// isolation race test (meaningful under -race, which CI runs). Each
// reader's pinned generations never go back, every 200 body for one
// (path, generation) is the same bytes, and once the writer stops the
// cache holds only final-generation entries.
func TestServeAgainstLiveApplyDelta(t *testing.T) {
	s := core.MustNewStudy(world.Config{Seed: 74, Scale: 0.01})
	ctx := context.Background()
	set, err := s.Dataset(ctx, "worldwide")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(s.Registry(), serve.Config{})
	menu := endpointMenu(set)[:13] // the always-200 endpoints

	var mu sync.Mutex
	seen := map[string][]byte{} // path|generation -> the first 200 body
	check := func(path string, rec *httptest.ResponseRecorder) (gen int, ok bool) {
		gen, ok = generationStamp(rec)
		if !ok {
			return 0, false
		}
		k := path + "|" + strconv.Itoa(gen)
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := seen[k]; !dup {
			seen[k] = rec.Body.Bytes()
		} else if !bytes.Equal(prev, rec.Body.Bytes()) {
			t.Errorf("%s at generation %d: two different 200 bodies", path, gen)
		}
		return gen, true
	}

	dirty := []string{set.At(0).Hostname, set.At(1).Hostname, set.At(2).Hostname}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s.Registry().MarkDirty("worldwide", dirty)
			if _, err := s.Registry().Get(ctx, "worldwide"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := -1
			for i := 0; i < 40; i++ {
				path := menu[(g+i)%len(menu)]
				rec := get(t, srv.Handler(), path)
				if rec.Code != http.StatusOK {
					t.Errorf("%s during ApplyDelta churn: status %d", path, rec.Code)
					return
				}
				if gen, ok := check(path, rec); ok {
					if gen < last {
						t.Errorf("%s: generation %d after %d on the same reader", path, gen, last)
						return
					}
					last = gen
				}
			}
		}(g)
	}
	wg.Wait()

	// The churn must leave no pinned generations behind.
	for _, info := range s.Registry().Generations() {
		if len(info.Pinned) != 0 {
			t.Fatalf("dataset %s still has pinned generations after churn: %+v", info.Name, info.Pinned)
		}
	}

	// One request per path at the final generation leaves exactly one
	// entry per cacheable path: every older generation was purged.
	cacheable := 0
	for _, path := range menu {
		rec := get(t, srv.Handler(), path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s after churn: status %d", path, rec.Code)
		}
		if rec.Header().Get("X-Cache") != "" {
			cacheable++
		}
	}
	if st := srv.CacheStats(); st.Entries != cacheable {
		t.Fatalf("after churn: %+v, want only the %d final-generation entries", st, cacheable)
	}
}

// TestReadNeverRunsRenewalCampaign: the §8.1 renewal campaign rewrites
// the world (it rotates certificates and injects chaos faults), so no
// dataset read may start it. A read of the campaign's corpus by name is
// an unknown dataset: it answers 404 without a dial, and worldwide keeps
// its generation and its clean set.
func TestReadNeverRunsRenewalCampaign(t *testing.T) {
	s := core.MustNewStudy(world.Config{Seed: 7, Scale: 0.02})
	for _, name := range s.DatasetNames() {
		if name == "acmefleet" {
			t.Fatalf("registry lists acmefleet: %v", s.DatasetNames())
		}
	}
	if _, err := s.Dataset(context.Background(), "worldwide"); err != nil {
		t.Fatal(err)
	}
	worldwide := func() dataset.GenerationInfo {
		for _, g := range s.Registry().Generations() {
			if g.Name == "worldwide" {
				return g
			}
		}
		t.Fatal("worldwide not registered")
		return dataset.GenerationInfo{}
	}
	before, dials := worldwide(), s.World.Net.DialCount()

	rec := get(t, serve.New(s.Registry(), serve.Config{}).Handler(), "/v1/table2?dataset=acmefleet")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/table2?dataset=acmefleet: status %d, want 404", rec.Code)
	}
	if after := worldwide(); after.Current != before.Current || after.Dirty != before.Dirty || !after.Cached {
		t.Fatalf("worldwide after the read: %+v, before %+v", after, before)
	}
	if got := s.World.Net.DialCount(); got != dials {
		t.Fatalf("the read dialed %d times", got-dials)
	}
}

// TestAbandonedExportReleasesPin: a client that starts a whole-corpus
// export, reads one chunk and hangs up must not leave the export's
// generation pinned — the handler's failed writes end the stream and
// release the lease.
func TestAbandonedExportReleasesPin(t *testing.T) {
	s, _ := serveStudy(t)
	ts := httptest.NewServer(serve.New(s.Registry(), serve.Config{}).Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/export", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 4096)); err != nil {
		t.Fatalf("reading the first chunk: %v", err)
	}
	conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		pinned := false
		for _, info := range s.Registry().Generations() {
			pinned = pinned || len(info.Pinned) > 0
		}
		if !pinned {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation still pinned 10s after the client hung up: %+v", s.Registry().Generations())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
