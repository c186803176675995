// Package serve is the query API over dataset.Registry: the Table-2
// aggregates, per-country / per-issuer / per-category breakdowns,
// single-host lookup, and a paginated streaming JSONL export riding the
// scanner's zero-copy record path.
//
// The performance core is three mechanisms. Snapshot isolation: every
// request pins the dataset generation it resolves (Registry.Pin), so
// MarkDirty/ApplyDelta/UseStore swap new generations in atomically
// underneath long-running exports and an old generation is forgotten the
// moment its last reader releases. A sharded read-through response
// cache: serialized bodies keyed by normalized query with the pinned
// generation embedded in the key, so invalidation is free — a patched
// dataset simply misses under its new generation and the superseded
// entries age out of the per-shard LRUs. Backpressure: each endpoint
// class holds a bounded concurrency budget and fast-fails 503 with a
// Retry-After hint instead of queueing toward collapse, and exports
// stream through pooled 64 KiB buffers.
//
// Determinism contract: response bodies are built only from the Set's
// ordered accessors, so for a given (endpoint, dataset generation,
// parameters) the bytes are identical with the cache on or off and at
// any server concurrency. The differential and stampede tests in
// serve_test.go hold the package to that.
package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/resultset"
	"repro/internal/scanner"
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// DefaultDataset is used when a request has no dataset parameter
	// (default "worldwide").
	DefaultDataset string
	// Cache sizes the response cache; CacheDisabled turns it off
	// entirely (every request runs the aggregation — the differential
	// baseline and the uncached benchmark mix).
	Cache         CacheConfig
	CacheDisabled bool
	// QueryConcurrency bounds in-flight aggregate/lookup requests
	// (default 256); ExportConcurrency bounds in-flight streaming
	// exports (default 32). Excess requests fail fast with 503.
	QueryConcurrency  int
	ExportConcurrency int
	// RetryAfter is the hint attached to 503 responses (default 1s).
	RetryAfter time.Duration
	// PageLimit caps (and defaults) the per-page host-listing size
	// (default 100).
	PageLimit int
}

const (
	defaultDataset    = "worldwide"
	defaultQueryConc  = 256
	defaultExportConc = 32
	defaultPageLimit  = 100
	defaultRetryAfter = time.Second
	exportFlushSize   = 64 << 10
	exportBufSlack    = 4096
	bodyBufSize       = 4 << 10
)

// Server is the HTTP query API. Create with New; the zero value is not
// usable.
type Server struct {
	reg   *dataset.Registry
	cfg   Config
	cache *cache // nil when disabled
	mux   *http.ServeMux

	querySem  chan struct{}
	exportSem chan struct{}
	// retryAfter is the preformatted Retry-After value in whole seconds
	// (503s are the hot path of an overload; no formatting there).
	retryAfter string

	rejectedQuery  atomic.Int64
	rejectedExport atomic.Int64

	bodyPool   sync.Pool // *[]byte, small aggregate bodies (uncached path)
	exportPool sync.Pool // *[]byte, 64 KiB streaming staging buffers
}

// New builds a Server over reg. The registry may keep mutating
// underneath (MarkDirty/ApplyDelta/InvalidateAll); requests always
// observe one consistent pinned generation.
func New(reg *dataset.Registry, cfg Config) *Server {
	if cfg.DefaultDataset == "" {
		cfg.DefaultDataset = defaultDataset
	}
	if cfg.QueryConcurrency <= 0 {
		cfg.QueryConcurrency = defaultQueryConc
	}
	if cfg.ExportConcurrency <= 0 {
		cfg.ExportConcurrency = defaultExportConc
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.PageLimit <= 0 {
		cfg.PageLimit = defaultPageLimit
	}
	secs := int64(cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	s := &Server{
		reg:        reg,
		cfg:        cfg,
		mux:        http.NewServeMux(),
		querySem:   make(chan struct{}, cfg.QueryConcurrency),
		exportSem:  make(chan struct{}, cfg.ExportConcurrency),
		retryAfter: strconv.FormatInt(secs, 10),
	}
	if !cfg.CacheDisabled {
		s.cache = newCache(cfg.Cache)
	}
	s.bodyPool.New = func() any { b := make([]byte, 0, bodyBufSize); return &b }
	s.exportPool.New = func() any { b := make([]byte, 0, exportFlushSize+exportBufSlack); return &b }

	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/table2", s.handleTable2)
	s.mux.HandleFunc("GET /v1/countries", s.handleCountries)
	s.mux.HandleFunc("GET /v1/country", s.handleCountry)
	s.mux.HandleFunc("GET /v1/issuers", s.handleIssuers)
	s.mux.HandleFunc("GET /v1/issuer", s.handleIssuer)
	s.mux.HandleFunc("GET /v1/category", s.handleCategory)
	s.mux.HandleFunc("GET /v1/host", s.handleHost)
	s.mux.HandleFunc("GET /v1/export", s.handleExport)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Handler returns the routed http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats snapshots the response-cache counters (zero value when the
// cache is disabled).
func (s *Server) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// Rejected reports how many requests the backpressure gates fast-failed.
func (s *Server) Rejected() (query, export int64) {
	return s.rejectedQuery.Load(), s.rejectedExport.Load()
}

// queryParam returns the first value of key in the request's raw query
// without materializing url.Values — r.URL.Query() allocates a map per
// call, which is most of a cache hit's allocation budget. It keeps
// url.ParseQuery's rules, so it reads what r.URL.Query().Get(key) would:
// a pair with a semicolon or a malformed escape is skipped, a pair
// without "=" has the empty value, and keys compare unescaped.
func queryParam(r *http.Request, key string) string {
	q := r.URL.RawQuery
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := unescape(k); !ok || k != key {
			continue
		}
		if v, ok := unescape(v); ok {
			return v
		}
	}
	return ""
}

// unescape is url.QueryUnescape that allocates only when s actually
// carries escapes.
func unescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	v, err := url.QueryUnescape(s)
	return v, err == nil
}

// tryAcquire takes a semaphore slot without blocking.
func tryAcquire(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// --- response plumbing ---

// notFoundError is a fill result that must not be cached: it renders as
// a 404 whose body names the missing thing.
type notFoundError string

func (e notFoundError) Error() string { return string(e) }

func (s *Server) reject(w http.ResponseWriter, counter *atomic.Int64) {
	counter.Add(1)
	w.Header().Set("Retry-After", s.retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte(`{"error":"over capacity"}` + "\n"))
}

func (s *Server) errorJSON(w http.ResponseWriter, status int, msg string) {
	// The scanner's escaper keeps arbitrary error text valid JSON.
	body := scanner.AppendJSONString([]byte(`{"error":`), msg)
	body = append(body, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeBody sends a finished 200 JSON body. cacheState is the X-Cache
// header value ("" omits the header — the cache-disabled configuration —
// so differential tests compare bodies, not cache metadata).
func writeBody(w http.ResponseWriter, body []byte, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if cacheState != "" {
		h.Set("X-Cache", cacheState)
	}
	w.Write(body)
}

// buildFn renders one endpoint's body for a pinned generation. It must
// derive every byte from the Set's deterministic accessors (plus the
// generation number and its own parameters). A non-empty notFound return
// makes the response an uncached 404.
type buildFn func(set *resultset.Set, ds string, gen int, dst []byte) (body []byte, notFound string)

// query is the shared handler spine for every cached aggregate/lookup
// endpoint: backpressure gate, generation pin, cache lookup keyed on
// endpoint|dataset|generation|params, fill on miss.
func (s *Server) query(w http.ResponseWriter, r *http.Request, endpoint, params string, build buildFn) {
	if !tryAcquire(s.querySem) {
		s.reject(w, &s.rejectedQuery)
		return
	}
	defer func() { <-s.querySem }()

	name := queryParam(r, "dataset")
	if name == "" {
		name = s.cfg.DefaultDataset
	}
	pin, err := s.reg.Pin(r.Context(), name)
	if err != nil {
		s.errorJSON(w, http.StatusNotFound, err.Error())
		return
	}
	defer pin.Release()
	set, gen := pin.Set(), pin.Generation()

	if s.cache == nil {
		buf := s.bodyPool.Get().(*[]byte)
		body, notFound := build(set, name, gen, (*buf)[:0])
		if notFound != "" {
			s.errorJSON(w, http.StatusNotFound, notFound)
		} else {
			writeBody(w, body, "")
		}
		*buf = body[:0]
		s.bodyPool.Put(buf)
		return
	}

	key := endpoint + "|" + name + "|g" + strconv.Itoa(gen) + "|" + params
	body, hit, err := s.cache.getOrFill(key, func() ([]byte, error) {
		// The cache retains the filled body, so it is built into a
		// fresh slice, never a pooled one.
		b, notFound := build(set, name, gen, nil)
		if notFound != "" {
			return nil, notFoundError(notFound)
		}
		return b, nil
	})
	if err != nil {
		s.errorJSON(w, http.StatusNotFound, err.Error())
		return
	}
	state := "miss"
	if hit {
		state = "hit"
	}
	writeBody(w, body, state)
}

// page parses offset/limit query parameters, clamping limit to the
// configured page cap. ok is false on malformed input (already reported).
func (s *Server) page(w http.ResponseWriter, r *http.Request) (offset, limit int, ok bool) {
	limit = s.cfg.PageLimit
	if v := queryParam(r, "offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.errorJSON(w, http.StatusBadRequest, "invalid offset")
			return 0, 0, false
		}
		offset = n
	}
	if v := queryParam(r, "limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.errorJSON(w, http.StatusBadRequest, "invalid limit")
			return 0, 0, false
		}
		if n > 0 && n < limit {
			limit = n
		}
	}
	return offset, limit, true
}

// clampPage slices bucket to the requested window.
func clampPage(bucket []int, offset, limit int) []int {
	if offset > len(bucket) {
		offset = len(bucket)
	}
	end := len(bucket)
	if offset+limit < end {
		end = offset + limit
	}
	return bucket[offset:end]
}
