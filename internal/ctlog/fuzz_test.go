package ctlog

import (
	"encoding/binary"
	"testing"
)

// maxFuzzLeaves bounds the honest log a fuzz input builds.
const maxFuzzLeaves = 300

// fuzzLog builds a log of 1..maxFuzzLeaves synthetic leaves sized from
// the fuzzed value.
func fuzzLog(size uint16) *Log {
	n := 1 + int(size)%maxFuzzLeaves
	l := &Log{leaves: make([]Hash, n)}
	for i := range l.leaves {
		l.leaves[i] = LeafHash(binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	return l
}

// proofFromBytes chunks raw fuzz bytes into whole hashes (a trailing
// partial hash is dropped).
func proofFromBytes(raw []byte) []Hash {
	proof := make([]Hash, len(raw)/len(Hash{}))
	for i := range proof {
		copy(proof[i][:], raw[i*len(Hash{}):])
	}
	return proof
}

// flipped returns a copy of proof with one byte, chosen by pick, inverted.
func flipped(proof []Hash, pick uint32) []Hash {
	out := append([]Hash(nil), proof...)
	pos := int(pick % uint32(len(out)*len(Hash{})))
	out[pos/len(Hash{})][pos%len(Hash{})] ^= 0xff
	return out
}

// FuzzVerifyInclusion: an honest audit path from a log of fuzzed size
// verifies, flipping any byte of it makes verification fail, and
// arbitrary index, size and proof bytes never panic.
func FuzzVerifyInclusion(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint32(0), 0, 0, []byte{})
	f.Add(uint16(6), uint16(4), uint32(33), 4, 7, make([]byte, 3*32))
	f.Add(uint16(255), uint16(200), uint32(1000), -1, 1<<40, make([]byte, 64+5))
	f.Add(uint16(maxFuzzLeaves-1), uint16(maxFuzzLeaves-1), uint32(7), 1<<62, -5, []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, size, index uint16, pick uint32, rawIndex, rawSize int, raw []byte) {
		l := fuzzLog(size)
		n := len(l.leaves)
		i := int(index) % n
		root := l.Root()
		proof, err := l.InclusionProof(i, n)
		if err != nil {
			t.Fatalf("InclusionProof(%d, %d): %v", i, n, err)
		}
		if !VerifyInclusion(root, l.leaves[i], i, n, proof) {
			t.Fatalf("honest proof for leaf %d of %d rejected", i, n)
		}
		if len(proof) > 0 && VerifyInclusion(root, l.leaves[i], i, n, flipped(proof, pick)) {
			t.Fatalf("proof for leaf %d of %d with byte %d flipped verified", i, n, pick)
		}
		VerifyInclusion(root, l.leaves[i], rawIndex, rawSize, proofFromBytes(raw))
	})
}

// FuzzVerifyConsistency: an honest consistency proof between two sizes of
// a log of fuzzed size verifies, flipping any byte of it makes
// verification fail, and arbitrary sizes and proof bytes never panic.
func FuzzVerifyConsistency(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint32(0), 0, 0, []byte{})
	f.Add(uint16(6), uint16(3), uint32(40), 3, 7, make([]byte, 3*32))
	f.Add(uint16(255), uint16(128), uint32(999), -1, 1<<40, make([]byte, 64+5))
	f.Add(uint16(maxFuzzLeaves-1), uint16(maxFuzzLeaves-2), uint32(7), 1<<62, -5, []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, size, old uint16, pick uint32, rawOld, rawNew int, raw []byte) {
		l := fuzzLog(size)
		n := len(l.leaves)
		m := 1 + int(old)%n
		oldRoot, newRoot := merkleRoot(l.leaves[:m]), l.Root()
		proof, err := l.ConsistencyProof(m, n)
		if err != nil {
			t.Fatalf("ConsistencyProof(%d, %d): %v", m, n, err)
		}
		if !VerifyConsistency(oldRoot, newRoot, m, n, proof) {
			t.Fatalf("honest proof %d -> %d rejected", m, n)
		}
		if len(proof) > 0 && VerifyConsistency(oldRoot, newRoot, m, n, flipped(proof, pick)) {
			t.Fatalf("proof %d -> %d with byte %d flipped verified", m, n, pick)
		}
		VerifyConsistency(oldRoot, newRoot, rawOld, rawNew, proofFromBytes(raw))
	})
}
