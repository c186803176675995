package serve

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestCacheLRUEviction fills one shard past its byte budget and checks
// the least-recently-used entries fall out while the recently-touched
// survivor stays resident.
func TestCacheLRUEviction(t *testing.T) {
	// One shard, room for roughly four 100-byte bodies.
	c := newCache(CacheConfig{Shards: 1, MaxBytes: 450}, []string{"d"})
	body := bytes.Repeat([]byte("x"), 95)
	fillCount := 0
	fill := func() ([]byte, error) { fillCount++; return body, nil }

	for i := 0; i < 8; i++ {
		if _, _, err := c.getOrFill("d", 0, "k"+strconv.Itoa(i), fill); err != nil {
			t.Fatal(err)
		}
		// Keep k0 hot so eviction prefers the colder middle keys.
		c.getOrFill("d", 0, "k0", fill)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite exceeding the byte budget: %+v", st)
	}
	if st.Bytes > 450 {
		t.Fatalf("resident bytes %d exceed the budget", st.Bytes)
	}

	before := fillCount
	c.getOrFill("d", 0, "k0", fill)
	if fillCount != before {
		t.Fatal("recently-used k0 was evicted")
	}
	c.getOrFill("d", 0, "k1", fill)
	if fillCount != before+1 {
		t.Fatal("cold k1 should have been evicted and refilled")
	}
}

// TestCacheSingleFlight parks 8 goroutines on one cold key: the fill
// must run once, with everyone sharing its bytes.
func TestCacheSingleFlight(t *testing.T) {
	c := newCache(CacheConfig{}, []string{"d"})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	fill := func() ([]byte, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return []byte("shared"), nil
	}

	const n = 8
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _, err := c.getOrFill("d", 0, "hot", fill)
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}(i)
	}
	<-entered // the winner is inside the fill; the rest must park, not fill
	close(release)
	wg.Wait()

	st := c.Stats()
	if st.Fills != 1 {
		t.Fatalf("fills = %d, want 1 (%+v)", st.Fills, st)
	}
	for i := range got {
		if string(got[i]) != "shared" {
			t.Fatalf("goroutine %d got %q", i, got[i])
		}
	}
}

// cachedGet is the serve spine's cache path: admit (dataset, gen), then
// read through key. admitted is false when the request would be served
// uncached.
func cachedGet(c *cache, dataset string, gen int, key string) (body string, hit, admitted bool) {
	if !c.admit(dataset, gen) {
		return "", false, false
	}
	b, hit, err := c.getOrFill(dataset, gen, key, func() ([]byte, error) { return []byte(key), nil })
	if err != nil {
		panic(err)
	}
	return string(b), hit, true
}

// TestCacheNewGenerationPurgesOld: the first request pinned on a newer
// generation drops every older entry of its dataset from every shard,
// and leaves other datasets' entries alone.
func TestCacheNewGenerationPurgesOld(t *testing.T) {
	c := newCache(CacheConfig{Shards: 4}, []string{"worldwide", "rok"})
	old := []string{"table2|worldwide|g1|", "countries|worldwide|g1|", "issuers|worldwide|g1|", "host|worldwide|g1|name=a"}
	shards := map[uint32]bool{}
	for _, k := range old {
		cachedGet(c, "worldwide", 1, k)
		shards[fnv32a(k)&c.mask] = true
	}
	if len(shards) < 2 {
		t.Fatalf("the old entries share one shard; the purge must be seen crossing shards")
	}
	cachedGet(c, "rok", 1, "table2|rok|g1|")
	if st := c.Stats(); st.Entries != len(old)+1 {
		t.Fatalf("before the advance: %+v, want %d entries", st, len(old)+1)
	}

	if b, hit, ok := cachedGet(c, "worldwide", 2, "table2|worldwide|g2|"); !ok || hit || b != "table2|worldwide|g2|" {
		t.Fatalf("new generation: body %q hit=%v admitted=%v, want an admitted miss", b, hit, ok)
	}
	st := c.Stats()
	if st.Purged != int64(len(old)) || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after the advance: %+v, want %d purged, 2 entries, no evictions", st, len(old))
	}
	if b, hit, ok := cachedGet(c, "rok", 1, "table2|rok|g1|"); !ok || !hit || b != "table2|rok|g1|" {
		t.Fatalf("other dataset's entry: body %q hit=%v admitted=%v, want a hit", b, hit, ok)
	}
	if _, hit, _ := cachedGet(c, "worldwide", 2, "table2|worldwide|g2|"); !hit {
		t.Fatal("the new generation's entry does not hit")
	}
}

// TestCacheSupersededNotAdmitted: once a newer generation is pinned, a
// request still pinned on an older one is a miss that inserts nothing;
// so is a request for a dataset the cache was not built for.
func TestCacheSupersededNotAdmitted(t *testing.T) {
	c := newCache(CacheConfig{}, []string{"worldwide"})
	cachedGet(c, "worldwide", 2, "table2|worldwide|g2|")
	before := c.Stats()
	if _, _, ok := cachedGet(c, "worldwide", 1, "table2|worldwide|g1|"); ok {
		t.Fatal("a superseded generation was admitted")
	}
	if _, _, ok := cachedGet(c, "unregistered", 0, "table2|unregistered|g0|"); ok {
		t.Fatal("an unknown dataset was admitted")
	}
	st := c.Stats()
	if st.Misses != before.Misses+2 || st.Fills != before.Fills || st.Entries != before.Entries {
		t.Fatalf("after two uncacheable requests: %+v, before %+v; want two more misses and nothing else", st, before)
	}
}

// TestCacheFillPastAdvanceNotInserted blocks a fill for generation 1,
// parks a waiter on it, advances the dataset to generation 2, then lets
// the fill finish: the caller and the waiter get its body, and the cache
// keeps nothing.
func TestCacheFillPastAdvanceNotInserted(t *testing.T) {
	c := newCache(CacheConfig{}, []string{"worldwide"})
	const key = "table2|worldwide|g1|"
	entered, release := make(chan struct{}), make(chan struct{})
	fill := func() ([]byte, error) {
		close(entered)
		<-release
		return []byte("gen1"), nil
	}
	if !c.admit("worldwide", 1) {
		t.Fatal("generation 1 not admitted")
	}
	got := make([][]byte, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		got[0], _, _ = c.getOrFill("worldwide", 1, key, fill)
	}()
	<-entered
	go func() {
		defer wg.Done()
		got[1], _, _ = c.getOrFill("worldwide", 1, key, fill)
	}()
	for c.Stats().Waits == 0 { // the second caller is parked on the fill
		runtime.Gosched()
	}
	cachedGet(c, "worldwide", 2, "table2|worldwide|g2|")
	close(release)
	wg.Wait()

	for i, b := range got {
		if string(b) != "gen1" {
			t.Fatalf("caller %d got %q, want the fill's body", i, b)
		}
	}
	st := c.Stats()
	if st.Fills != 2 || st.Waits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v: want 2 fills, 1 wait and only the generation-2 entry", st)
	}
}
