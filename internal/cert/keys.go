package cert

import "math/rand"

// NewKey mints a fresh key pair identity of the given type and size using
// the provided deterministic source. Distinct draws yield distinct KeyIDs
// with overwhelming probability, which is all the reuse analysis needs.
func NewKey(r *rand.Rand, t KeyType, bits int) PublicKey {
	var id KeyID
	for i := 0; i < len(id); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			id[i+j] = byte(v >> (8 * j))
		}
	}
	return PublicKey{Type: t, Bits: bits, ID: id}
}
