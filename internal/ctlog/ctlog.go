// Package ctlog implements a Certificate Transparency log in the style of
// RFC 6962: an append-only Merkle tree over submitted certificates, with
// tree heads, inclusion proofs and consistency proofs. The paper
// (§2.2) relies on CT as the auditable record of issuance and notes that
// even the largest CT view misses ~10% of certificates; the reproduction
// submits most — not all — of the world's issued certificates and measures
// the government-certificate coverage gap, a number the paper calls out as
// unmeasured.
package ctlog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cert"
)

// Hash is a Merkle tree node hash.
type Hash [32]byte

// Domain-separation prefixes per RFC 6962 §2.1.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes a leaf entry.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// Entry is one logged certificate.
type Entry struct {
	// Index is the position in the log.
	Index int
	// Cert is the submitted certificate.
	Cert *cert.Certificate
	// Timestamp is the submission time.
	Timestamp time.Time
}

// Log is an append-only RFC 6962-style certificate log.
type Log struct {
	mu      sync.RWMutex
	name    string
	leaves  []Hash
	entries []Entry
	// known mirrors leaves as a set, maintained on Append so coverage
	// checks don't rebuild it per call.
	known map[Hash]bool
}

// NewSized creates an empty log with a capacity hint for the expected
// entry count.
func NewSized(name string, hint int) *Log {
	return &Log{
		name:    name,
		entries: make([]Entry, 0, hint),
		known:   make(map[Hash]bool, hint),
	}
}

// Name returns the log's name.
func (l *Log) Name() string { return l.name }

// Size returns the number of entries.
func (l *Log) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.leaves)
}

// Append submits a certificate.
func (l *Log) Append(c *cert.Certificate, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	leaf := LeafHash(c.Encode())
	idx := len(l.leaves)
	l.leaves = append(l.leaves, leaf)
	l.entries = append(l.entries, Entry{Index: idx, Cert: c, Timestamp: at})
	l.known[leaf] = true
}

// Root returns the Merkle tree hash of the current log.
func (l *Log) Root() Hash {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return merkleRoot(l.leaves)
}

// RootAt returns the tree hash of the first n entries.
func (l *Log) RootAt(n int) (Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n < 0 || n > len(l.leaves) {
		return Hash{}, fmt.Errorf("ctlog: size %d out of range [0,%d]", n, len(l.leaves))
	}
	return merkleRoot(l.leaves[:n]), nil
}

// merkleRoot computes MTH per RFC 6962 §2.1.
func merkleRoot(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return LeafHash(nil) // MTH({}) = SHA-256 of empty string; prefix kept for symmetry
	case 1:
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	return nodeHash(merkleRoot(leaves[:k]), merkleRoot(leaves[k:]))
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n (n >= 2).
func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// ErrIndexOutOfRange is returned for a proof request outside the log.
var ErrIndexOutOfRange = errors.New("ctlog: index out of range")

// InclusionProof returns the audit path for the entry at index within the
// first treeSize entries (RFC 6962 §2.1.1).
func (l *Log) InclusionProof(index, treeSize int) ([]Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if treeSize < 0 || treeSize > len(l.leaves) || index < 0 || index >= treeSize {
		return nil, ErrIndexOutOfRange
	}
	return auditPath(index, l.leaves[:treeSize]), nil
}

func auditPath(m int, leaves []Hash) []Hash {
	n := len(leaves)
	if n <= 1 {
		return nil
	}
	k := largestPowerOfTwoBelow(n)
	if m < k {
		return append(auditPath(m, leaves[:k]), merkleRoot(leaves[k:]))
	}
	return append(auditPath(m-k, leaves[k:]), merkleRoot(leaves[:k]))
}

// VerifyInclusion checks an audit path against a root (RFC 6962 §2.1.1
// verification algorithm).
func VerifyInclusion(root Hash, leaf Hash, index, treeSize int, proof []Hash) bool {
	if index < 0 || index >= treeSize {
		return false
	}
	h := leaf
	fn, sn := index, treeSize-1
	for _, p := range proof {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			h = nodeHash(p, h)
			for fn%2 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			h = nodeHash(h, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && h == root
}

// ConsistencyProof proves the first m entries are a prefix of the first n
// (RFC 6962 §2.1.2).
func (l *Log) ConsistencyProof(m, n int) ([]Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if m < 0 || n > len(l.leaves) || m > n {
		return nil, ErrIndexOutOfRange
	}
	if m == 0 || m == n {
		return nil, nil
	}
	return subProof(m, l.leaves[:n], true), nil
}

func subProof(m int, leaves []Hash, complete bool) []Hash {
	n := len(leaves)
	if m == n {
		if complete {
			return nil
		}
		return []Hash{merkleRoot(leaves)}
	}
	k := largestPowerOfTwoBelow(n)
	if m <= k {
		return append(subProof(m, leaves[:k], complete), merkleRoot(leaves[k:]))
	}
	return append(subProof(m-k, leaves[k:], false), merkleRoot(leaves[:k]))
}

// VerifyConsistency checks a consistency proof between two tree heads
// (RFC 6962 §2.1.2 verification algorithm).
func VerifyConsistency(oldRoot, newRoot Hash, m, n int, proof []Hash) bool {
	if m > n || m < 0 {
		return false
	}
	if m == n {
		return oldRoot == newRoot && len(proof) == 0
	}
	if m == 0 {
		// RFC 6962 requires 0 < m; nothing to verify against.
		return false
	}
	// If m is a power of two the old root is implicit.
	path := proof
	var fr, sr Hash
	if isPowerOfTwo(m) {
		fr, sr = oldRoot, oldRoot
	} else {
		if len(path) == 0 {
			return false
		}
		fr, sr = path[0], path[0]
		path = path[1:]
	}
	fn, sn := m-1, n-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	for _, p := range path {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			fr = nodeHash(p, fr)
			sr = nodeHash(p, sr)
			for fn%2 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			sr = nodeHash(sr, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}

func isPowerOfTwo(x int) bool { return x > 0 && x&(x-1) == 0 }

// Entries returns every entry, in log order.
func (l *Log) Entries() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// TailFrom returns the entries appended at or after cursor, plus the
// advanced cursor (the log size at read time). Consumers follow the log
// incrementally by feeding each returned cursor into the next call:
//
//	entries, cursor = log.TailFrom(cursor)
//
// A cursor of 0 reads the log from the beginning; a cursor at or past
// the current size returns no entries. Because the log is append-only,
// successive tails never miss or repeat an entry.
func (l *Log) TailFrom(cursor int) ([]Entry, int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := len(l.entries)
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= n {
		return nil, n
	}
	out := make([]Entry, n-cursor)
	copy(out, l.entries[cursor:])
	return out, n
}

// Coverage summarizes how much of a certificate population the log has
// (the §2.2 "CT misses ~10%" measurement, applied to government certs).
type Coverage struct {
	Total  int
	Logged int
}

// Pct is the logged share.
func (c Coverage) Pct() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Logged) / float64(c.Total)
}

// MeasureCoverage checks which of the given leaf certificates appear in
// the log (by exact encoding). The membership set is maintained
// incrementally by Append, so each call costs one hash per candidate
// rather than a rebuild over the whole log.
func (l *Log) MeasureCoverage(leaves []*cert.Certificate) Coverage {
	cov := Coverage{Total: len(leaves)}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, c := range leaves {
		if l.known[LeafHash(c.Encode())] {
			cov.Logged++
		}
	}
	return cov
}
