package resultset

// Read-only accessor helpers for the serving layer: derived aggregates
// the HTTP handlers render that are cheap enough to compute per cache
// miss (the response cache memoizes the serialized bytes per
// generation), but not worth carrying in the build pass every batch
// consumer pays for.

// IssuerCells returns per-issuing-CA validity cells — one Cell per
// distinct leaf-issuer common name, in first-seen order, counting the
// chain-bearing hosts under that CA and how many of them validate.
// Each call walks the issuer buckets (O(chained results)); callers that
// serve traffic should memoize the rendered output, not this slice.
func (s *Set) IssuerCells() []Cell {
	names := s.issIdx.orderedKeys()
	out := make([]Cell, len(names))
	for i, cn := range names {
		bucket := s.issIdx.bucket(cn)
		c := Cell{Label: cn, Total: len(bucket)}
		for _, idx := range bucket {
			if s.At(idx).Verify.Valid() {
				c.Valid++
			}
		}
		out[i] = c
	}
	return out
}
