// Package observatory runs the continuous-measurement loop the paper's
// one-shot scans approximate: instead of rescanning the whole government
// corpus on a schedule, it tails the certificate-transparency log and the
// world's change events into a dirty-host stream, prioritizes re-scans
// through a deterministic queue (fresh-certificate hosts first, token-
// bucket rate limiting for the rest of the churn), patches the live
// result set incrementally (resultset.ApplyDelta, cost proportional to
// the delta), and samples the adoption trajectory periodically
// (longitudinal.Tally) over virtual months.
//
// Everything the observatory emits is bit-deterministic for a given seed
// and configuration, at any worker count: the acmefleet scheduler's
// ownership discipline. One goroutine owns all state; ticks use nominal
// times (start + i·tick), never live clock reads; re-scans return results
// in admitted order regardless of scanner concurrency; and deltas apply
// on the scheduler goroutine.
package observatory

import (
	"container/heap"
	"context"
	"math/rand"
	"strings"
	"time"

	"repro/internal/certwatch"
	"repro/internal/longitudinal"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/truststore"
	"repro/internal/world"
)

// Config tunes one observatory run. The zero value of every field has a
// usable default; Seed and Start should be set deliberately.
type Config struct {
	// Seed drives the observatory's own churn driver and the scanner's
	// backoff jitter.
	Seed int64
	// Start is the loop start on the virtual timeline (default: the
	// world's scan time).
	Start time.Time
	// Horizon is the simulated observation length (default 60 days).
	Horizon time.Duration
	// Tick is the loop granularity (default 12h).
	Tick time.Duration
	// Workers is the re-scan concurrency per tick (default 16). Output
	// is byte-identical at any value.
	Workers int
	// SnapshotEvery samples the adoption trajectory every n ticks
	// (default 4). The final tick always samples.
	SnapshotEvery int
	// ChurnPerTick is how many hosts of background churn the observatory
	// itself drives into the world each tick via world.ChurnTick
	// (default 0: the world churns only through external actors such as
	// the ACME fleet or remediation).
	ChurnPerTick int
	// RefillPerTick is the token-bucket refill for non-fresh re-scans
	// (default 32 tokens per tick; each non-fresh re-scan costs one).
	// Fresh-certificate hosts bypass the bucket entirely.
	RefillPerTick int
	// Burst caps accumulated tokens (default 4×RefillPerTick).
	Burst int
	// Store is the trust store re-scans validate against (default: the
	// world's "apple" store, the paper's conservative choice).
	Store *truststore.Store
}

func (c Config) withDefaults(w *world.World) Config {
	if c.Start.IsZero() {
		c.Start = w.ScanTime
	}
	if c.Horizon <= 0 {
		c.Horizon = 60 * 24 * time.Hour
	}
	if c.Tick <= 0 {
		c.Tick = 12 * time.Hour
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4
	}
	if c.RefillPerTick <= 0 {
		c.RefillPerTick = 32
	}
	if c.Burst <= 0 {
		c.Burst = 4 * c.RefillPerTick
	}
	if c.Store == nil {
		c.Store = w.Stores["apple"]
	}
	return c
}

// Observatory is one continuous-measurement loop over one world. All
// fields are owned by the scheduler goroutine running Run; nothing here
// is safe for concurrent use.
type Observatory struct {
	Cfg Config

	w       *world.World
	watcher *certwatch.Watcher
	set     *resultset.Set

	// corpus marks the hostnames in the observed result set; children
	// indexes them by parent domain so wildcard CT entries dirty the
	// hosts they actually cover.
	corpus   map[string]bool
	children map[string][]string

	ctCursor     int
	changeCursor int

	queue  dirtyHeap
	queued map[string]*dirtyHost
	tokens int

	expiry expiryHeap

	churnRand *rand.Rand
	scanCfg   scanner.Config

	alerts []certwatch.Match
	points []longitudinal.Point
}

// dirtyHost is one queued re-scan candidate.
type dirtyHost struct {
	hostname string
	// fresh marks hosts dirtied by fresh certificate issuance (a CT tail
	// entry or a rotation event); they are re-scanned ahead of all other
	// churn and bypass the token bucket.
	fresh bool
	// since is the virtual time the host was first dirtied.
	since time.Time
	// index is the heap position, maintained for heap.Fix upgrades.
	index int
}

// New assembles an observatory over a world and its current indexed scan.
// The CT and change-log cursors start at the present — the loop observes
// growth, not the backlog (the one-shot experiments already cover that).
func New(w *world.World, set *resultset.Set, cfg Config) *Observatory {
	cfg = cfg.withDefaults(w)
	o := &Observatory{
		Cfg:       cfg,
		w:         w,
		watcher:   certwatch.NewWatcher(w.GovHosts),
		set:       set,
		corpus:    make(map[string]bool, set.Len()),
		children:  make(map[string][]string),
		queued:    make(map[string]*dirtyHost),
		tokens:    cfg.Burst,
		churnRand: rand.New(rand.NewSource(cfg.Seed)),
		scanCfg:   scanner.DefaultConfig(cfg.Store, cfg.Start),
	}
	o.scanCfg.Concurrency = cfg.Workers
	o.scanCfg.Seed = cfg.Seed
	_, o.ctCursor = w.CT.TailFrom(1 << 62)
	_, o.changeCursor = w.ChangeTail(1 << 62)
	for i := 0; i < set.Len(); i++ {
		r := set.At(i)
		host := r.Hostname
		o.corpus[host] = true
		if dot := strings.IndexByte(host, '.'); dot >= 0 {
			parent := host[dot+1:]
			o.children[parent] = append(o.children[parent], host)
		}
		if len(r.Chain) > 0 && r.Chain[0].NotAfter.After(cfg.Start) {
			heap.Push(&o.expiry, expiryEntry{at: r.Chain[0].NotAfter, hostname: host})
		}
	}
	return o
}

// Set returns the current patched result set (latest generation).
func (o *Observatory) Set() *resultset.Set { return o.set }

// Run executes the loop: one scheduler pass per tick until the horizon.
// Returns the run's report. Respects ctx cancellation at tick
// boundaries.
func (o *Observatory) Run(ctx context.Context) (*Report, error) {
	rep := &Report{Corpus: o.set.Len()}
	ticks := int(o.Cfg.Horizon / o.Cfg.Tick)
	for i := 0; i <= ticks && ctx.Err() == nil; i++ {
		// Nominal tick time: never a live clock read, so the report is
		// independent of in-tick latency bookkeeping.
		now := o.Cfg.Start.Add(time.Duration(i) * o.Cfg.Tick)
		o.w.Clock.SetTime(now)

		if o.Cfg.ChurnPerTick > 0 {
			o.w.ChurnTick(o.churnRand, now, o.Cfg.ChurnPerTick)
		}

		stat := TickStat{Tick: i, Time: now}
		o.ingest(now, &stat)

		batch := o.admit(now)
		stat.Scanned = len(batch)
		stat.Deferred = o.queue.Len()

		if len(batch) > 0 {
			results := o.rescan(ctx, batch, now)
			next, err := o.set.ApplyDelta(results)
			if err != nil {
				return rep, err
			}
			o.rearm(o.set, results, now)
			o.set = next
		}

		if i%o.Cfg.SnapshotEvery == 0 || i == ticks {
			o.points = append(o.points, longitudinal.Tally(now, o.set))
			stat.Snapshotted = true
		}
		stat.Alerts = len(o.alerts)
		rep.Ticks = append(rep.Ticks, stat)
	}
	rep.Alerts = append([]certwatch.Match(nil), o.alerts...)
	rep.Trajectory = longitudinal.Trajectory{Points: o.points}
	rep.FinalCounts = o.set.Counts()
	return rep, nil
}

// ingest advances both tails and the expiry heap, enqueueing dirty
// hosts. Runs on the scheduler goroutine.
func (o *Observatory) ingest(now time.Time, stat *TickStat) {
	// CT tail: every new entry is screened for lookalike issuance, and
	// entries covering corpus hosts dirty them at fresh priority.
	entries, ctCursor := o.w.CT.TailFrom(o.ctCursor)
	o.ctCursor = ctCursor
	stat.CTEntries = len(entries)
	for _, e := range entries {
		o.alerts = append(o.alerts, o.watcher.MatchEntry(e)...)
		for _, name := range e.Cert.Names() {
			name = strings.ToLower(name)
			if rest, ok := strings.CutPrefix(name, "*."); ok {
				// A wildcard covers its parent and the parent's direct
				// children — exactly the hosts such a chain can serve.
				if o.corpus[rest] {
					o.dirty(rest, true, now, stat)
				}
				for _, h := range o.children[rest] {
					o.dirty(h, true, now, stat)
				}
				continue
			}
			if o.corpus[name] {
				o.dirty(name, true, now, stat)
			}
		}
	}

	// World change tail: rotations and fixes carry fresh certificates;
	// everything else is ordinary churn behind the token bucket.
	events, changeCursor := o.w.ChangeTail(o.changeCursor)
	o.changeCursor = changeCursor
	stat.Events = len(events)
	for _, ev := range events {
		if !o.corpus[ev.Hostname] {
			continue
		}
		fresh := ev.Kind == world.CertRotated || ev.Kind == world.SiteFixed
		o.dirty(ev.Hostname, fresh, now, stat)
	}

	// Expiry: certificates aging out flip hosts invalid with no event;
	// the heap built from the corpus chains surfaces them. Stale entries
	// (the host re-scanned onto a newer chain since) are dropped against
	// the live set.
	for o.expiry.Len() > 0 && !o.expiry[0].at.After(now) {
		e := heap.Pop(&o.expiry).(expiryEntry)
		r, ok := o.set.Lookup(e.hostname)
		if !ok || len(r.Chain) == 0 || r.Chain[0].NotAfter.After(now) {
			continue
		}
		o.dirty(e.hostname, false, now, stat)
	}
}

// rearm tracks the expiry of the rescanned rows' leaves. It keeps one
// invariant: every corpus host whose current leaf expires after now has
// an entry (NotAfter, host) in the expiry heap. An entry is pushed when
// its row is installed (New, or here) and popped only once its time is
// ≤ now, so when the replaced row in prev carried a leaf with the same
// NotAfter — still after now — its entry is still queued and a second
// push would only add a duplicate pop later.
func (o *Observatory) rearm(prev *resultset.Set, results []scanner.Result, now time.Time) {
	for k := range results {
		r := &results[k]
		if len(r.Chain) == 0 || !r.Chain[0].NotAfter.After(now) {
			continue
		}
		at := r.Chain[0].NotAfter
		if old, ok := prev.Lookup(r.Hostname); ok && len(old.Chain) > 0 && old.Chain[0].NotAfter.Equal(at) {
			continue
		}
		heap.Push(&o.expiry, expiryEntry{at: at, hostname: r.Hostname})
	}
}

// dirty enqueues one host, upgrading an already-queued entry to fresh
// priority when warranted. Re-dirtying at the same class is a no-op.
func (o *Observatory) dirty(hostname string, fresh bool, now time.Time, stat *TickStat) {
	if h, ok := o.queued[hostname]; ok {
		if fresh && !h.fresh {
			h.fresh = true
			heap.Fix(&o.queue, h.index)
		}
		return
	}
	h := &dirtyHost{hostname: hostname, fresh: fresh, since: now}
	o.queued[hostname] = h
	heap.Push(&o.queue, h)
	if fresh {
		stat.FreshDirty++
	} else {
		stat.ChurnDirty++
	}
}

// admit pops this tick's re-scan batch: every fresh host, then non-fresh
// churn up to the token bucket. Pop order — (fresh, since, hostname) —
// is the batch order, and therefore the delta's result order.
func (o *Observatory) admit(now time.Time) []string {
	o.tokens += o.Cfg.RefillPerTick
	if o.tokens > o.Cfg.Burst {
		o.tokens = o.Cfg.Burst
	}
	var batch []string
	for o.queue.Len() > 0 {
		top := o.queue[0]
		if !top.fresh {
			if o.tokens == 0 {
				break
			}
			o.tokens--
		}
		heap.Pop(&o.queue)
		delete(o.queued, top.hostname)
		batch = append(batch, top.hostname)
	}
	return batch
}

// rescan probes the batch at the nominal tick time. The scanner returns
// results in input order at any concurrency, so the delta is
// deterministic at any worker count.
func (o *Observatory) rescan(ctx context.Context, batch []string, now time.Time) []scanner.Result {
	cfg := o.scanCfg
	cfg.Now = now
	cfg.Clock = o.w.Clock
	s := scanner.New(o.w.Net, o.w.DNS, o.w.Class, cfg)
	return s.ScanAll(ctx, batch)
}

// dirtyHeap orders hosts by (fresh first, since, hostname): the priority
// re-scan queue.
type dirtyHeap []*dirtyHost

func (q dirtyHeap) Len() int { return len(q) }
func (q dirtyHeap) Less(i, j int) bool {
	if q[i].fresh != q[j].fresh {
		return q[i].fresh
	}
	if !q[i].since.Equal(q[j].since) {
		return q[i].since.Before(q[j].since)
	}
	return q[i].hostname < q[j].hostname
}
func (q dirtyHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *dirtyHeap) Push(x any) {
	h := x.(*dirtyHost)
	h.index = len(*q)
	*q = append(*q, h)
}
func (q *dirtyHeap) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return h
}

// expiryEntry is one tracked certificate expiry.
type expiryEntry struct {
	at       time.Time
	hostname string
}

// expiryHeap orders entries by (expiry, hostname).
type expiryHeap []expiryEntry

func (q expiryHeap) Len() int { return len(q) }
func (q expiryHeap) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].hostname < q[j].hostname
}
func (q expiryHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *expiryHeap) Push(x any)   { *q = append(*q, x.(expiryEntry)) }
func (q *expiryHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
