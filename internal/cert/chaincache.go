package cert

import (
	"bytes"
	"crypto/sha256"
	"sync"
)

// ChainCache deduplicates parsed certificate chains by the digest of their
// wire encoding. The simulated government web is dominated by shared
// material — shared wildcards, internal CAs, §5.3.3 reused certificates —
// so a scan sees the same chain payload from many hosts; parsing it once
// and handing every caller the same frozen chain removes the per-handshake
// decode cost. Safe for concurrent use.
type ChainCache struct {
	mu sync.RWMutex
	m  map[[32]byte][]*Certificate
}

// NewChainCache returns an empty cache.
func NewChainCache() *ChainCache {
	return &ChainCache{m: make(map[[32]byte][]*Certificate)}
}

// Parse decodes a chain payload, returning the cached chain when the same
// bytes have been seen before. Returned chains are frozen and shared;
// callers must treat them as read-only. Parse does not retain payload:
// ParseChain keeps slices of the bytes it parses, so a miss parses a copy,
// and callers may reuse the payload buffer as soon as Parse returns.
func (cc *ChainCache) Parse(payload []byte) ([]*Certificate, error) {
	key := sha256.Sum256(payload)
	cc.mu.RLock()
	chain, ok := cc.m[key]
	cc.mu.RUnlock()
	if ok {
		return chain, nil
	}
	chain, err := ParseChain(bytes.Clone(payload))
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	// First insert wins so concurrent parsers converge on one shared chain.
	if prior, ok := cc.m[key]; ok {
		chain = prior
	} else {
		cc.m[key] = chain
	}
	cc.mu.Unlock()
	return chain, nil
}

// Len reports the number of distinct chains cached.
func (cc *ChainCache) Len() int {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return len(cc.m)
}
