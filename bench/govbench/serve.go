package main

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resultset"
	"repro/internal/serve"
	"repro/internal/world"
)

// Serve workload shape. The load is a closed loop: each client is a
// caller — a dashboard, an analyst's script — that sends its next request
// only when the previous reply is fully read, over its own keep-alive
// connection. At most nproc (2) clients, so the load generator never
// needs more cores than the host has.
const (
	serveClients      = 2
	serveSetups       = 3 // set-up repetitions per run; setup_s is their median
	exportWindow      = 200
	churnHostsPerTick = 50
	readsPerTick      = 3500          // about 5 writer ticks/s at the baseline's ~17.5k req/s
	reqHeader         = "X-Bench-Req" // links a client span to its handler span
)

// Request kinds of the mix.
const (
	kHost = iota
	kCountry
	kIssuer
	kCategory
	kAgg
	kExport
	numKinds
)

var kindSpan = [numKinds]string{
	"net.client:host", "net.client:country", "net.client:issuer",
	"net.client:category", "net.client:agg", "net.client:export",
}

// menu is every distinct request path, grouped by kind.
type menu struct {
	paths  []string
	lo, hi [numKinds]int // paths[lo[k]:hi[k]] are kind k
}

// minDrillHosts is the fewest hosts an issuer or category must have to be
// drilled into. serve_churn rotates certificates under the readers, and a
// label whose last host moves away answers 404 from then on. At about 5
// ticks of 50 hosts a second over serve_churn's 27k hosts, a 20-second
// run touches a given host with probability under 0.2, so a label with
// this many hosts loses all of them with odds below 1e-7. Countries never
// empty: hosts keep their country.
const minDrillHosts = 10

// buildMenu lists every path the mix can draw over a worldwide set: each
// hostname, every country, issuer and category drill-down, the three
// aggregates, and the export windows that tile the corpus.
func buildMenu(set *resultset.Set) *menu {
	m := &menu{}
	add := func(k int, paths ...string) {
		m.lo[k] = len(m.paths)
		m.paths = append(m.paths, paths...)
		m.hi[k] = len(m.paths)
	}
	var ps []string
	for i := 0; i < set.Len(); i++ {
		ps = append(ps, "/v1/host?name="+url.QueryEscape(set.At(i).Hostname))
	}
	add(kHost, ps...)
	ps = ps[:0]
	for _, cc := range set.Countries() {
		ps = append(ps, "/v1/country?cc="+url.QueryEscape(cc))
	}
	add(kCountry, ps...)
	ps = ps[:0]
	for _, cn := range set.Issuers() {
		if len(set.ByIssuer(cn)) >= minDrillHosts {
			ps = append(ps, "/v1/issuer?cn="+url.QueryEscape(cn))
		}
	}
	add(kIssuer, ps...)
	ps = ps[:0]
	for _, c := range set.Categories() {
		if len(set.ByCategory(c)) >= minDrillHosts {
			ps = append(ps, "/v1/category?cat="+url.QueryEscape(c.String()))
		}
	}
	add(kCategory, ps...)
	add(kAgg, "/v1/table2", "/v1/countries", "/v1/issuers")
	ps = ps[:0]
	for off := 0; off < set.Len(); off += exportWindow {
		ps = append(ps, "/v1/export?offset="+strconv.Itoa(off)+"&limit="+strconv.Itoa(exportWindow))
	}
	add(kExport, ps...)
	return m
}

// pick draws one request: 50% host lookups, 30% drill-downs (country,
// issuer or category, each a third), 18% aggregates, 2% export windows;
// the path within a kind is uniform.
func (m *menu) pick(state *uint64) (idx, kind int) {
	switch u := splitmix64(state) % 100; {
	case u < 50:
		kind = kHost
	case u < 80:
		kind = kCountry + int(splitmix64(state)%3)
	case u < 98:
		kind = kAgg
	default:
		kind = kExport
	}
	n := uint64(m.hi[kind] - m.lo[kind])
	return m.lo[kind] + int(splitmix64(state)%n), kind
}

// splitmix64 is the seeded generator behind the request mix.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashWriter is an in-process ResponseWriter that keeps only the status
// and an FNV-64a hash of the body, the same hash the clients take.
type hashWriter struct {
	hdr    http.Header
	status int
	sum    hash.Hash64
}

func (h *hashWriter) Header() http.Header         { return h.hdr }
func (h *hashWriter) WriteHeader(code int)        { h.status = code }
func (h *hashWriter) Write(p []byte) (int, error) { return h.sum.Write(p) }

// serveInProcess runs one GET through handler without a network,
// returning status and body hash.
func serveInProcess(handler http.Handler, path string) (int, uint64, error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0, 0, err
	}
	req.RequestURI = path
	hw := &hashWriter{hdr: http.Header{}, status: http.StatusOK, sum: fnv.New64a()}
	handler.ServeHTTP(hw, req)
	return hw.status, hw.sum.Sum64(), nil
}

// serveEnv is one set-up: a study with its worldwide dataset warm, and
// govserve listening on a loopback port with its cache warm.
type serveEnv struct {
	study *core.Study
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve returns
	base  string
	set   *resultset.Set
	menu  *menu
}

// setupServe builds one serveEnv. In a traced run the handler is wrapped
// to record a span inside every ServeHTTP.
func setupServe(ctx context.Context, cfg config, tr *tracer, parent int64, obs *layerObs) (*serveEnv, error) {
	rt0 := readRuntime()
	sp := tr.begin("world.build", parent)
	s, err := core.NewStudy(world.Config{Seed: cfg.Seed, Scale: cfg.scaleOr(0.2)})
	sp.end()
	if err != nil {
		return nil, err
	}
	obs.worldAlloc = append(obs.worldAlloc, rt0.since().AllocBytes/1e6)
	sp = tr.begin("dataset.warm:worldwide", parent)
	set, err := s.Registry().Get(ctx, "worldwide")
	sp.end()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		obs.scanned(set, sp.seconds())
	}

	sp = tr.begin("serve.new", parent)
	e := &serveEnv{study: s, set: set, menu: buildMenu(set), done: make(chan struct{})}
	e.srv = serve.New(s.Registry(), serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sp.end()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	handler := e.srv.Handler()
	if tr != nil {
		handler = traceHandler(tr, handler)
	}
	e.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	sp.end()

	// Warm the response cache: one request for every cacheable path.
	sp = tr.begin("serve.warm", parent)
	defer sp.end()
	for k := kHost; k <= kAgg; k++ {
		for _, p := range e.menu.paths[e.menu.lo[k]:e.menu.hi[k]] {
			status, _, err := serveInProcess(e.srv.Handler(), p)
			if err != nil || status != http.StatusOK {
				e.close()
				return nil, fmt.Errorf("warming %s: status %d, %v", p, status, err)
			}
		}
	}
	return e, nil
}

// close stops the HTTP server and waits for its Serve goroutine.
func (e *serveEnv) close() {
	e.hs.Close()
	<-e.done
}

// traceHandler wraps h with a span around ServeHTTP, parented to the
// client span named by the request's X-Bench-Req header.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every request a traced run sends carries the header; one without
		// it would parse as 0 and record a top-level span.
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		name := "serve.handler"
		if r.URL.Path == "/v1/export" {
			name = "serve.handler:export"
		}
		sp := tr.beginOn(name, req, req, -1)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// churnSignal paces serve_churn's writer by its readers: the first
// successful read and every readsPerTick-th after it make one writer tick
// due. A fixed read:write ratio keeps the share of reads that land on a
// fresh generation, and so the cache hit ratio, independent of how fast
// the shared host happens to run. A writer on a wall-clock schedule
// (5 ticks/s) let faster runs hit the cache more, which amplified host
// noise: it measured 13% relative IQR in ops_per_s over ten seeds,
// against 5% for this ratio.
type churnSignal struct {
	reads atomic.Int64
	// due carries the time a tick became due. It holds one tick: a tick
	// due while the writer is still busy waits there, later ones merge
	// into it.
	due chan time.Time
}

func newChurnSignal() *churnSignal { return &churnSignal{due: make(chan time.Time, 1)} }

// read counts one successful read (a nil signal counts nothing).
func (c *churnSignal) read() {
	if c == nil || c.reads.Add(1)%readsPerTick != 1 {
		return
	}
	select {
	case c.due <- clock.Now():
	default:
	}
}

// clientStats is one client's record of the measured phase.
type clientStats struct {
	lat    []float64 // seconds per request; +Inf when it failed
	counts []int32   // requests per menu path
	xor    uint64    // XOR of every successful body's hash
	ok     int
	errs   []string
}

// runClients drives the closed loop until end: serveClients goroutines,
// each on its own keep-alive connection, each with its own seeded mix.
// Successful reads are counted on sig (nil on serve_read).
func runClients(ctx context.Context, e *serveEnv, seed int64, tr *tracer, parent int64, end time.Time, sig *churnSignal) []clientStats {
	transport := &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	stats := make([]clientStats, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.counts = make([]int32, len(e.menu.paths))
			state := uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)
			for clock.Now().Before(end) {
				idx, kind := e.menu.pick(&state)
				sp := tr.beginRequest(kindSpan[kind], parent, c+1)
				t0 := clock.Now()
				sum, err := get(ctx, client, e.base+e.menu.paths[idx], sp.id())
				d := clock.Now().Sub(t0).Seconds()
				sp.end()
				st.counts[idx]++
				if err != nil {
					st.lat = append(st.lat, inf)
					if len(st.errs) < 5 {
						st.errs = append(st.errs, err.Error())
					}
					continue
				}
				st.lat = append(st.lat, d)
				st.xor ^= sum
				st.ok++
				sig.read()
			}
		}(c)
	}
	wg.Wait()
	return stats
}

// get fetches url, reads the whole body into an FNV-64a hash, and fails
// on any non-2xx status. reqID, when non-zero, rides in X-Bench-Req.
func get(ctx context.Context, client *http.Client, url string, reqID int64) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return h.Sum64(), nil
}

// writerStats is the churn writer's record.
type writerStats struct {
	fresh, patch, churn []float64 // seconds per tick
	latenessMax         float64   // seconds a due tick waited for the writer
	pinnedMax           int
	ticks               int
	errs                []string
}

// runWriter is serve_churn's writer: until end, it runs one tick each
// time sig makes one due. A tick churns the world, marks the touched hosts
// dirty and resolves the patched generation — strictly in that order, so
// the world never changes while a patch scan reads it.
func runWriter(ctx context.Context, e *serveEnv, seed int64, tr *tracer, parent int64, end time.Time, sig *churnSignal) *writerStats {
	ws := &writerStats{}
	w, reg := e.study.World, e.study.Registry()
	rng := rand.New(rand.NewSource(seed))
	track := serveClients + 1
	stop := time.NewTimer(end.Sub(clock.Now()))
	defer stop.Stop()
	for {
		var due time.Time
		select {
		case due = <-sig.due:
		case <-stop.C:
			return ws
		case <-ctx.Done():
			ws.errs = append(ws.errs, ctx.Err().Error())
			return ws
		}
		ws.latenessMax = max(ws.latenessMax, clock.Now().Sub(due).Seconds())

		tick := tr.beginOn("writer.tick", parent, 0, track)
		sp := tr.beginOn("world.churn", tick.id(), 0, track)
		t0 := clock.Now()
		touched := w.ChurnTick(rng, w.ScanTime, churnHostsPerTick)
		t1 := clock.Now()
		sp.end()
		sp = tr.beginOn("dataset.markdirty", tick.id(), 0, track)
		reg.MarkDirty("worldwide", touched)
		sp.end()
		sp = tr.beginOn("dataset.patch", tick.id(), 0, track)
		t2 := clock.Now()
		_, err := reg.Get(ctx, "worldwide")
		t3 := clock.Now()
		sp.end()
		tick.end()

		ws.ticks++
		if err != nil {
			ws.errs = append(ws.errs, "patch: "+err.Error())
			continue
		}
		ws.churn = append(ws.churn, t1.Sub(t0).Seconds())
		ws.patch = append(ws.patch, t3.Sub(t2).Seconds())
		ws.fresh = append(ws.fresh, t3.Sub(t1).Seconds())
		for _, g := range reg.Generations() {
			if g.Name != "worldwide" {
				continue
			}
			n := 0
			for _, p := range g.Pinned {
				if p.Generation < g.Current {
					n += p.Readers
				}
			}
			ws.pinnedMax = max(ws.pinnedMax, n)
		}
	}
}

func runServeRead(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	return runServe(ctx, cfg, tr, false)
}

func runServeChurn(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	return runServe(ctx, cfg, tr, true)
}

// runServe is both serve workloads: set up serveSetups times (keeping the
// last), then run the closed-loop readers for cfg.Seconds — with the
// churn writer beside them when churn is set — then check the outputs.
func runServe(ctx context.Context, cfg config, tr *tracer, churn bool) (*outcome, error) {
	out := &outcome{}
	var obs layerObs
	var e *serveEnv
	for i := 0; i < serveSetups; i++ {
		setup := tr.begin("setup", 0)
		if e != nil {
			e.close()
			e = nil
		}
		collectPrevious(i)
		t0 := clock.Now()
		next, err := setupServe(ctx, cfg, tr, setup.id(), &obs)
		setup.end()
		if err != nil {
			return nil, err
		}
		out.Setups = append(out.Setups, clock.Now().Sub(t0).Seconds())
		e = next
	}
	defer e.close()

	if tr != nil {
		probe := tr.begin("probe", 0)
		sp := tr.begin("resultset.build", probe.id())
		resultset.New(e.set.Results(), resultset.Options{CountryOf: e.study.World.CountryOf})
		sp.end()
		probe.end()
		out.Probe += probe.seconds()
	}

	measure := tr.begin("measure", 0)
	cache0 := e.srv.CacheStats()
	rt0 := readRuntime()
	start := clock.Now()
	end := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var ws *writerStats
	var sig *churnSignal
	var wg sync.WaitGroup
	if churn {
		sig = newChurnSignal()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = runWriter(ctx, e, cfg.Seed, tr, measure.id(), end, sig)
		}()
	}
	stats := runClients(ctx, e, cfg.Seed, tr, measure.id(), end, sig)
	wg.Wait()
	out.Measured = clock.Now().Sub(start).Seconds()
	obs.runtime = rt0.since()
	cache := e.srv.CacheStats()
	measure.end()

	counts := make([]int32, len(e.menu.paths))
	var xor uint64
	for _, st := range stats {
		out.Ops = append(out.Ops, st.lat...)
		out.OK += st.ok
		xor ^= st.xor
		for i, n := range st.counts {
			counts[i] += n
		}
		for _, msg := range st.errs {
			out.Failures = append(out.Failures, "request: "+msg)
		}
	}
	out.Attempted += int64(len(out.Ops))
	out.Failed += int64(len(out.Ops) - out.OK)

	chk := tr.begin("check", 0)
	if churn {
		out.Attempted += int64(ws.ticks)
		out.Failed += int64(len(ws.errs))
		for _, msg := range ws.errs {
			out.Failures = append(out.Failures, "writer: "+msg)
		}
		same, err := exportMatchesRescan(ctx, e, chk.id())
		out.check(err == nil && same, "final /v1/export differs from a full rescan of the mutated world (err %v)", err)
		out.Extra = append(out.Extra, metric{"fresh_p50_ms", medianOf(ws.fresh) * 1e3, "ms"})
	} else {
		// Every path requested an odd number of times leaves its body hash
		// in the XOR; replaying exactly those against an uncached server
		// must reproduce it.
		uncached := serve.New(e.study.Registry(), serve.Config{CacheDisabled: true}).Handler()
		var want uint64
		var err error
		for i, n := range counts {
			if n%2 == 1 {
				var sum uint64
				if _, sum, err = serveInProcess(uncached, e.menu.paths[i]); err != nil {
					break
				}
				want ^= sum
			}
		}
		out.check(err == nil && xor == want, "response XOR %016x, uncached replay %016x (err %v)", xor, want, err)
	}
	chk.end()

	hitRatio := 0.0
	if d := (cache.Hits - cache0.Hits) + (cache.Misses - cache0.Misses); d > 0 {
		hitRatio = float64(cache.Hits-cache0.Hits) / float64(d)
	}
	out.Extra = append(out.Extra, metric{"serve.cache_hit_ratio", hitRatio, "ratio"})
	if tr == nil {
		return out, nil
	}

	spans := tr.snapshot()
	var handler, exportH, clientLat []float64
	for _, s := range spans {
		switch {
		case s.Name == "serve.handler":
			handler = append(handler, s.seconds())
		case s.Name == "serve.handler:export":
			handler = append(handler, s.seconds())
			exportH = append(exportH, s.seconds())
		case strings.HasPrefix(s.Name, "net.client:"):
			clientLat = append(clientLat, s.seconds())
		}
	}
	hl := summarizeLatency(handler)
	cl := summarizeLatency(clientLat)
	obs.caches(e.study.Scanner().Cfg)
	out.Layers = obs.common(spans, "dataset.warm:worldwide", out)
	qRej, eRej := e.srv.Rejected()
	out.Extra = append(out.Extra,
		metric{"serve.handler_p50_us", hl.P50 * 1e6, "us"},
		metric{"serve.handler_p99_us", hl.Tail * 1e6, "us"},
		metric{"serve.export_handler_p50_us", medianOf(exportH) * 1e6, "us"},
		metric{"net.overhead_p50_us", (cl.P50 - hl.P50) * 1e6, "us"},
		metric{"serve.fills", float64(cache.Fills - cache0.Fills), "count"},
		metric{"serve.waits", float64(cache.Waits - cache0.Waits), "count"},
		metric{"serve.evictions", float64(cache.Evictions - cache0.Evictions), "count"},
		metric{"serve.rejected", float64(qRej + eRej), "count"},
	)
	if churn {
		out.Extra = append(out.Extra,
			metric{"dataset.patch_ms_p50", medianOf(ws.patch) * 1e3, "ms"},
			metric{"dataset.patch_ms_p90", percentileOf(ws.patch, 90) * 1e3, "ms"},
			metric{"dataset.pinned_max", float64(ws.pinnedMax), "count"},
			metric{"world.churn_ms_p50", medianOf(ws.churn) * 1e3, "ms"},
			metric{"writer.lateness_ms_max", ws.latenessMax * 1e3, "ms"},
			metric{"writer.ticks", float64(ws.ticks), "count"},
		)
	}
	return out, nil
}

// exportMatchesRescan fetches the final generation's full export and
// compares it byte for byte with the records of a fresh full rescan.
// parent is the check span the traced handler span belongs under.
func exportMatchesRescan(ctx context.Context, e *serveEnv, parent int64) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/v1/export", nil)
	if err != nil {
		return false, err
	}
	if parent != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(parent, 10))
	}
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	resp, err := (&http.Client{Transport: transport}).Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("export status %d", resp.StatusCode)
	}
	raw := e.study.Scanner().ScanAll(ctx, e.study.World.GovHosts)
	var want []byte
	for i := range raw {
		want = raw[i].AppendRecord(want)
	}
	return bytes.Equal(got, want), nil
}
