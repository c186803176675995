package verify

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/cert"
	"repro/internal/truststore"
)

// Cache memoizes the chain-structural half of verification — the issuer
// walk, signature checks, validity-window checks and trust anchoring —
// which depends only on the presented chain, the trust store and the scan
// time. The per-host hostname-match pass is layered on top by Verify, so
// thousands of hosts behind the same shared wildcard or internal CA pay the
// structural cost once. Sharded for concurrent scanners; safe for use from
// many goroutines.
type Cache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

const cacheShards = 16

type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]Code
}

// cacheKey identifies one structural verification: the digest of the
// presented chain's certificate fingerprints (leaf first — the leaf alone
// is ambiguous because the world serves truncated presentations of the
// same leaf), the trust store, and the scan time.
type cacheKey struct {
	chain [32]byte
	store *truststore.Store
	now   int64
}

// NewCache returns an empty structural-verification cache.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]Code)
	}
	return c
}

// chainDigest folds the chain's certificate fingerprints, leaf first.
func chainDigest(chain []*cert.Certificate) [32]byte {
	h := sha256.New()
	for _, c := range chain {
		fp := c.Fingerprint()
		h.Write(fp[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func (c *Cache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.chain[0]%cacheShards]
}

func (c *Cache) lookup(k cacheKey) (Code, bool) {
	s := c.shard(k)
	s.mu.RLock()
	e, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *Cache) store(k cacheKey, code Code) {
	s := c.shard(k)
	s.mu.Lock()
	if _, ok := s.m[k]; !ok {
		s.m[k] = code
	}
	s.mu.Unlock()
}

// Stats reports cache hits and misses since creation.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of cached structural results.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}
