package serve

import (
	"sync"
	"sync/atomic"
)

// cache.go — the sharded read-through response cache. Entries are fully
// serialized response bodies keyed by normalized query (the key embeds
// the dataset generation, so a patched or invalidated dataset is never
// served stale bytes: its new generation simply misses). A body embeds
// its generation, so once a newer generation of its dataset is pinned no
// request can hit it again: the cache holds only the newest generation
// of each dataset that some request has pinned. The first request to pin
// a newer generation purges that dataset's older entries from every
// shard, a request pinned on a superseded generation is served uncached,
// and a fill that finishes after its generation was superseded answers
// its callers without being inserted. The LRU and its byte budget still
// bound one generation, which at full scale alone outgrows the default
// budget. The shard count is a power of two so key→shard routing is one
// fnv hash and a mask; each shard is independently locked, so concurrent
// hits on different shards never contend. A cache miss runs exactly one
// fill per key no matter how many requests stampede it: the first caller
// claims the fill, the rest park on its completion channel and share the
// bytes (single-flight).

// CacheConfig sizes the response cache.
type CacheConfig struct {
	// Shards is the shard count, rounded up to a power of two (0 = 16).
	Shards int
	// MaxBytes is the total body-byte budget across shards (0 = 64 MiB).
	// Each shard evicts least-recently-used entries past its share.
	MaxBytes int
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64
	Misses    int64 // requests that found no entry (fills + waits + served uncached)
	Fills     int64 // misses that ran the aggregation
	Waits     int64 // misses that parked on another request's fill
	Evictions int64 // entries the LRU dropped for the byte budget
	Purged    int64 // entries dropped because their generation was superseded
	Entries   int
	Bytes     int
}

// cacheEntry is one LRU node.
type cacheEntry struct {
	key string
	// newest is the newest-generation counter of the entry's dataset; it
	// identifies the dataset without retaining a copy of its name.
	newest     *atomic.Int64
	gen        int64
	body       []byte
	prev, next *cacheEntry
}

// cacheCall is one in-flight single-flight fill.
type cacheCall struct {
	done chan struct{}
	body []byte
	err  error
}

// cacheShard is one independently-locked slice of the key space.
type cacheShard struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry
	inflight map[string]*cacheCall
	// head is most-recently-used, tail least; detached sentinel-free list.
	head, tail *cacheEntry
	bytes      int
}

type cache struct {
	shards   []cacheShard
	mask     uint32
	shardMax int
	// newest maps each dataset to the newest generation a request has
	// pinned. The map is built once and only read, so the hit path loads
	// the generation without a lock.
	newest    map[string]*atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	fills     atomic.Int64
	waits     atomic.Int64
	evictions atomic.Int64
	purged    atomic.Int64
}

const (
	defaultCacheShards = 16
	defaultCacheBytes  = 64 << 20
)

// newCache sizes a cache for the given dataset names. A request for a
// dataset outside them is never cached.
func newCache(cfg CacheConfig, datasets []string) *cache {
	n := cfg.Shards
	if n <= 0 {
		n = defaultCacheShards
	}
	// Round up to a power of two for mask routing.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	total := cfg.MaxBytes
	if total <= 0 {
		total = defaultCacheBytes
	}
	c := &cache{
		shards:   make([]cacheShard, shards),
		mask:     uint32(shards - 1),
		shardMax: total / shards,
		newest:   make(map[string]*atomic.Int64, len(datasets)),
	}
	for _, name := range datasets {
		c.newest[name] = new(atomic.Int64)
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.shards[i].inflight = make(map[string]*cacheCall)
	}
	return c
}

// fnv32a is the allocation-free FNV-1a the shard router uses.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// admit reports whether a request pinned on generation gen of dataset
// may use the cache, advancing the dataset's newest generation when gen
// is newer. The request that advances it purges the dataset's older
// entries before it fills. A superseded generation, or a dataset the
// cache was not built for, counts as a miss and is not admitted: the
// caller renders its body uncached.
func (c *cache) admit(dataset string, gen int) bool {
	newest := c.newest[dataset]
	if newest == nil {
		c.misses.Add(1)
		return false
	}
	g := int64(gen)
	for {
		cur := newest.Load()
		switch {
		case g == cur:
			return true
		case g < cur:
			c.misses.Add(1)
			return false
		case newest.CompareAndSwap(cur, g):
			c.purge(newest, g)
			return true
		}
	}
}

// purge drops every entry of the dataset whose counter is newest that is
// older than gen, from every shard. An insert that races it re-checks the
// newest generation under its shard's lock, so no superseded entry
// survives the purge.
func (c *cache) purge(newest *atomic.Int64, gen int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; {
			next := e.next
			if e.gen < gen && e.newest == newest {
				sh.evict(e)
				c.purged.Add(1)
			}
			e = next
		}
		sh.mu.Unlock()
	}
}

// getOrFill returns the cached body for key, running fill exactly once
// per key across concurrent callers on a miss. key must embed dataset and
// gen, and the caller must have admitted them. The returned slice is
// owned by the cache and must be treated as read-only. hit reports
// whether the bytes came from the cache without running (or waiting on)
// a fill. A fill whose generation was superseded while it ran still
// answers its callers but is not inserted.
func (c *cache) getOrFill(dataset string, gen int, key string, fill func() ([]byte, error)) (body []byte, hit bool, err error) {
	sh := &c.shards[fnv32a(key)&c.mask]
	sh.mu.Lock()
	if e := sh.entries[key]; e != nil {
		sh.moveToFront(e)
		sh.mu.Unlock()
		c.hits.Add(1)
		return e.body, true, nil
	}
	c.misses.Add(1)
	if call := sh.inflight[key]; call != nil {
		sh.mu.Unlock()
		c.waits.Add(1)
		<-call.done
		return call.body, false, call.err
	}
	call := &cacheCall{done: make(chan struct{})}
	sh.inflight[key] = call
	sh.mu.Unlock()

	c.fills.Add(1)
	body, err = fill()

	newest, g := c.newest[dataset], int64(gen)
	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil && len(body) <= c.shardMax && g >= newest.Load() {
		sh.insert(&cacheEntry{key: key, newest: newest, gen: g, body: body})
		for sh.bytes > c.shardMax && sh.tail != nil && sh.tail != sh.head {
			c.evictions.Add(1)
			sh.evict(sh.tail)
		}
	}
	sh.mu.Unlock()
	call.body, call.err = body, err
	close(call.done)
	return body, false, err
}

// insert links e at the front. Caller holds sh.mu.
func (sh *cacheShard) insert(e *cacheEntry) {
	sh.entries[e.key] = e
	sh.bytes += len(e.key) + len(e.body)
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront marks e most recently used. Caller holds sh.mu.
func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.tail == e {
		sh.tail = e.prev
	}
	// Relink at front.
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
}

// evict unlinks and forgets e. Caller holds sh.mu.
func (sh *cacheShard) evict(e *cacheEntry) {
	delete(sh.entries, e.key)
	sh.bytes -= len(e.key) + len(e.body)
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.head == e {
		sh.head = e.next
	}
	if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats snapshots the counters plus current occupancy.
func (c *cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Fills:     c.fills.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
		Purged:    c.purged.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}
