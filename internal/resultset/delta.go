package resultset

import (
	"fmt"
	"sort"

	"repro/internal/scanner"
)

// ApplyDelta returns a new generation of the Set in which the given
// rescanned results replace their predecessors, with every index, count,
// cell and derived tally bit-identical to a from-scratch build over the
// patched result slice. A generation's cost is set by the delta and the
// index entries it touches — not by the corpus, and not by how much churn
// earlier generations absorbed:
//
//   - the result slice itself is never copied: the new generation shares
//     the base generation's backing slice and layers the changed rows on
//     top as an index-keyed overlay (pointers into a per-generation slab,
//     immutable once installed);
//   - the contiguous view (Results, WriteJSONL) is materialized lazily
//     and cached, so a generation only pays that copy if something asks
//     for it; once the overlay grows past 1/8 of the corpus the
//     generation compacts eagerly (deterministic, size-triggered) to
//     keep per-row access at one map probe, so the O(corpus) copy is
//     paid once per corpus/8 changed rows;
//   - only buckets actually touched by a changed result are rebuilt,
//     by splicing out the old index and splicing in the new one — a
//     splice copies the touched bucket, so a change landing in a large
//     bucket (the valid category, a big provider) pays that bucket's
//     length; a touched family also copies its bucket-header vector, one
//     entry per key it ever interned, which for the families patched here
//     (categories, exceptions, providers, hosting kinds, issuers) stays
//     bounded however long the chain grows;
//   - the fingerprint and key-ID families are not patched at all: nearly
//     every rotation mints a new key in both, so their header vectors
//     would grow with churn. Each generation builds them from its own
//     chain-bearing rows on first use (Fingerprints, ByFingerprint,
//     KeyIDs, ByKeyID), and a generation nobody asks pays nothing;
//   - key→slot intern tables are shared across the whole delta chain
//     (slots are never renumbered), so no per-generation map is cloned;
//   - first-seen key orders are re-derived lazily, and only for families
//     whose order could actually have changed;
//   - counts, per-country aggregates and scalar tallies are adjusted by
//     retracting the old result's contribution and adding the new one.
//
// Every changed result must carry the hostname of a corpus member (the
// corpus host list itself never changes under a delta; additions and
// removals require a rebuild). When one hostname appears several times,
// the last occurrence wins. The receiver is not modified and remains
// fully usable — callers holding older generations observe nothing.
// An empty delta returns the receiver itself.
func (s *Set) ApplyDelta(changed []scanner.Result) (*Set, error) {
	if len(changed) == 0 {
		return s, nil
	}
	s.hostOnce.Do(s.buildHostIndex)

	pick := make(map[int]int, len(changed))
	idxs := make([]int, 0, len(changed))
	for ci := range changed {
		i, ok := s.byHost[changed[ci].Hostname]
		if !ok {
			return nil, fmt.Errorf("resultset: ApplyDelta host %q not in corpus", changed[ci].Hostname)
		}
		if _, dup := pick[i]; !dup {
			idxs = append(idxs, i)
		}
		pick[i] = ci
	}
	sort.Ints(idxs)

	// Share the base generation's backing slice and layer the changed
	// rows on top. The slab is allocated at exact capacity so appends
	// never reallocate — the overlay's pointers into it stay valid —
	// and rows are immutable once installed, so a parent's overlay
	// entries are inherited by pointer.
	n := len(s.results)
	ns := &Set{opts: s.opts, results: s.results}
	slab := make([]scanner.Result, 0, len(idxs))
	overlay := make(map[int]*scanner.Result, len(s.overlay)+len(idxs))
	if s.overlay != nil {
		// Index-keyed inserts into a fresh map; iteration order is immaterial.
		//lint:allow maprange copying disjoint index->row entries is order-independent
		for i, r := range s.overlay {
			overlay[i] = r
		}
	}
	for _, i := range idxs {
		slab = append(slab, changed[pick[i]])
		overlay[i] = &slab[len(slab)-1]
	}
	ns.overlay = overlay
	// The corpus host list is unchanged, so the lazy host index and the
	// country structure (a pure function of the hostname) are inherited
	// wholesale.
	ns.byHost = s.byHost
	ns.ccIdx = s.ccIdx
	ns.countries = s.countries
	ns.ccRow = s.ccRow

	ns.counts = s.counts
	ns.issuerDomain = s.issuerDomain
	ns.ccAggs = append([]CountryAgg(nil), s.ccAggs...)

	var catOps, excOps, provOps, kindOps, issOps deltaOps
	var chainOps, invOps, failOps listOps

	// Walk the changed indices in ascending corpus order, retracting each
	// old result's contributions and adding the new one's. Ascending order
	// keeps every per-slot rm/add list sorted and makes cell first-index
	// maintenance order-independent.
	for _, i := range idxs {
		or, nr := s.At(i), overlay[i]

		ocat, ncat := or.Category(), nr.Category()
		tallySigned(&ns.counts, or, ocat, -1)
		tallySigned(&ns.counts, nr, ncat, 1)
		if ocat != ncat {
			catOps.remove(s.catIdx.tab.lookup(ocat), i)
			catOps.insert(s.catIdx.tab.slot(ncat), i)
		}

		if oe, ne := or.Exception, nr.Exception; oe != ne {
			if oe != scanner.ExcNone {
				excOps.remove(s.excIdx.tab.lookup(oe), i)
			}
			if ne != scanner.ExcNone {
				excOps.insert(s.excIdx.tab.slot(ne), i)
			}
		}

		if p := s.ccRow[i]; p >= 0 {
			agg := &ns.ccAggs[p]
			aggAdjust(agg, or, -1)
			aggAdjust(agg, nr, 1)
		}

		if or.Available != nr.Available || (or.Available && or.Provider != nr.Provider) {
			if or.Available {
				provOps.remove(s.provIdx.tab.lookup(or.Provider), i)
			}
			if nr.Available {
				provOps.insert(s.provIdx.tab.slot(nr.Provider), i)
			}
		}
		if or.Available != nr.Available || (or.Available && or.HostKind != nr.HostKind) {
			if or.Available {
				kindOps.remove(s.kindIdx.tab.lookup(or.HostKind), i)
			}
			if nr.Available {
				kindOps.insert(s.kindIdx.tab.slot(nr.HostKind), i)
			}
		}

		ochain, nchain := len(or.Chain) > 0, len(nr.Chain) > 0
		if ochain != nchain {
			if ochain {
				chainOps.remove(i)
			} else {
				chainOps.insert(i)
			}
		}
		var ocn, ncn string
		if ochain {
			ocn = or.Chain[0].Issuer.CommonName
		}
		if nchain {
			ncn = nr.Chain[0].Issuer.CommonName
		}

		if ocn != ncn {
			if ocn != "" {
				issOps.remove(s.issIdx.tab.lookup(ocn), i)
			}
			if ncn != "" {
				issOps.insert(s.issIdx.tab.slot(ncn), i)
			}
		}
		if ocn != "" {
			ns.issuerDomain--
		}
		if ncn != "" {
			ns.issuerDomain++
		}

		oinv, ninv := ocat.IsInvalidHTTPS(), ncat.IsInvalidHTTPS()
		if oinv != ninv {
			if oinv {
				invOps.remove(i)
			} else {
				invOps.insert(i)
			}
		}

		ofail := or.ServesHTTP && or.ServesHTTPS && or.ValidHTTPS()
		nfail := nr.ServesHTTP && nr.ServesHTTPS && nr.ValidHTTPS()
		if ofail != nfail {
			if ofail {
				failOps.remove(i)
			} else {
				failOps.insert(i)
			}
		}
	}

	ns.catIdx = applyOps(s.catIdx, &catOps)
	ns.excIdx = applyOps(s.excIdx, &excOps)
	ns.provIdx = applyOps(s.provIdx, &provOps)
	ns.kindIdx = applyOps(s.kindIdx, &kindOps)
	ns.issIdx = applyOps(s.issIdx, &issOps)

	ns.chained = chainOps.splice(s.chained)
	ns.failedUpgrades = failOps.splice(s.failedUpgrades)
	ns.invalidIdx = invOps.splice(s.invalidIdx)

	ns.hostKeyIdx = applyCellDelta(s.hostKeyIdx, s.At, ns.At, n, idxs, hostKeyContrib, hostKeyLabel)
	ns.sigAlgoIdx = applyCellDelta(s.sigAlgoIdx, s.At, ns.At, n, idxs, sigAlgoContrib, sigAlgoLabel)
	ns.combinedIdx = applyCellDelta(s.combinedIdx, s.At, ns.At, n, idxs, combinedContrib, combinedLabel)
	ns.versionIdx = applyCellDelta(s.versionIdx, s.At, ns.At, n, idxs, versionContrib, versionLabel)

	// Compact once the overlay covers enough of the corpus that the flat
	// copy is cheaper than every future generation re-probing the map.
	// The trigger is pure size arithmetic, so a chain of deltas compacts
	// at the same generation regardless of timing or worker count.
	if len(overlay)*8 >= n {
		flat := make([]scanner.Result, n)
		copy(flat, s.results)
		// Index-keyed writes into distinct slots; iteration order is immaterial.
		//lint:allow maprange overlay entries write disjoint indices
		for i, r := range overlay {
			flat[i] = *r
		}
		ns.results = flat
		ns.overlay = nil
	}
	return ns, nil
}

// aggAdjust applies one result's contribution to a country aggregate.
// Hosts is hostname membership and never changes under a delta.
func aggAdjust(a *CountryAgg, r *scanner.Result, d int) {
	if !r.Available {
		return
	}
	a.Available += d
	if r.HasHTTPS() {
		a.HTTPS += d
	}
	if r.ValidHTTPS() {
		a.Valid += d
	}
}

// deltaOps batches one bucket family's edits: per-slot removal and
// addition lists (ascending, because changed indices are walked
// ascending) plus the touched slots in first-touch order.
type deltaOps struct {
	touched []int32
	rm, add map[int32][]int
}

func (d *deltaOps) touch(p int32) {
	if d.rm == nil {
		d.rm = make(map[int32][]int)
		d.add = make(map[int32][]int)
	}
	if _, ok := d.rm[p]; ok {
		return
	}
	if _, ok := d.add[p]; ok {
		return
	}
	d.touched = append(d.touched, p)
}

func (d *deltaOps) remove(p int32, i int) {
	d.touch(p)
	d.rm[p] = append(d.rm[p], i)
}

func (d *deltaOps) insert(p int32, i int) {
	d.touch(p)
	d.add[p] = append(d.add[p], i)
}

// applyOps produces the next generation of one bucket family: untouched
// buckets alias the base generation's arrays (the bucket-header vector
// is the only per-family copy), touched buckets are rebuilt once by
// splicing, and the public key order is inherited unless the edit could
// have reordered it (a key appearing, emptying, or changing its first
// occurrence index).
func applyOps[K comparable](base index[K], ops *deltaOps) index[K] {
	if len(ops.touched) == 0 {
		return base
	}
	nb := len(base.buckets)
	for _, p := range ops.touched {
		if int(p) >= nb {
			nb = int(p) + 1
		}
	}
	buckets := make([][]int, nb)
	copy(buckets, base.buckets)
	orderStable := true
	for _, p := range ops.touched {
		var old []int
		if int(p) < len(base.buckets) {
			old = base.buckets[p]
		}
		nw := spliceBucket(old, ops.rm[p], ops.add[p])
		buckets[p] = nw
		if (old == nil) != (nw == nil) || (old != nil && nw != nil && old[0] != nw[0]) {
			orderStable = false
		}
	}
	ord := base.ord
	if !orderStable {
		ord = &keyOrder[K]{}
	}
	return index[K]{tab: base.tab, buckets: buckets, ord: ord}
}

// listOps batches edits to one membership list (chained, invalid,
// failed-upgrade indices).
type listOps struct{ rm, add []int }

func (l *listOps) remove(i int) { l.rm = append(l.rm, i) }
func (l *listOps) insert(i int) { l.add = append(l.add, i) }
func (l *listOps) empty() bool  { return len(l.rm) == 0 && len(l.add) == 0 }

// splice rebuilds the list, sharing the base list verbatim when nothing
// changed. An emptied list stays non-nil to match a fresh build.
func (l *listOps) splice(old []int) []int {
	if l.empty() {
		return old
	}
	out := spliceBucket(old, l.rm, l.add)
	if out == nil {
		out = []int{}
	}
	return out
}

// --- cell families ---

// applyCellDelta produces the next generation of one cell family. Cells
// are value-keyed through the shared intern table; each changed result
// retracts its old contribution and adds its new one. Rows are read
// through the generations' At accessors (overlay-aware), never by
// copying the corpus. A cell whose count reaches zero is tombstoned
// (first = -1); when the first contributor of a surviving cell is
// retracted, the new first is found by scanning the patched results
// forward from the old one — bounded by the distance to the next
// contributor, and only triggered when a delta touches a first-seen
// representative.
func applyCellDelta[K comparable](
	x cellIndex[K], oldAt, newAt func(int) *scanner.Result, n int, idxs []int,
	contrib func(*scanner.Result) (K, bool, bool),
	label func(*scanner.Result) string,
) cellIndex[K] {
	cells, first := x.cells, x.first
	cloned := false
	ensure := func() {
		if !cloned {
			cells = append([]Cell(nil), cells...)
			first = append([]int32(nil), first...)
			cloned = true
		}
	}
	for _, i := range idxs {
		oldK, oldV, oldOK := contrib(oldAt(i))
		newK, newV, newOK := contrib(newAt(i))
		if !oldOK && !newOK {
			continue
		}
		if oldOK && newOK && oldK == newK {
			if oldV == newV {
				continue
			}
			ensure()
			p := x.tab.lookup(oldK)
			if newV {
				cells[p].Valid++
			} else {
				cells[p].Valid--
			}
			continue
		}
		if oldOK {
			ensure()
			p := x.tab.lookup(oldK)
			c := &cells[p]
			c.Total--
			if oldV {
				c.Valid--
			}
			if c.Total == 0 {
				first[p] = -1
			} else if first[p] == int32(i) {
				first[p] = rescanFirst(newAt, n, i+1, oldK, contrib)
			}
		}
		if newOK {
			ensure()
			p := x.tab.slot(newK)
			for int(p) >= len(cells) {
				cells = append(cells, Cell{})
				first = append(first, -1)
			}
			c := &cells[p]
			if c.Total == 0 {
				c.Label = label(newAt(i))
				first[p] = int32(i)
			} else if first[p] < 0 || int32(i) < first[p] {
				first[p] = int32(i)
			}
			c.Total++
			if newV {
				c.Valid++
			}
		}
	}
	if !cloned {
		return x
	}
	return cellIndex[K]{tab: x.tab, cells: cells, first: first, ord: &cellOrder{}}
}

// rescanFirst finds the smallest result index ≥ from contributing key k
// in the patched corpus of n rows (-1 when none remains; transiently
// possible mid-delta when every remaining contributor is itself about to
// be retracted, in which case the later retraction zeroes the cell).
func rescanFirst[K comparable](at func(int) *scanner.Result, n, from int, k K, contrib func(*scanner.Result) (K, bool, bool)) int32 {
	for j := from; j < n; j++ {
		if kj, _, ok := contrib(at(j)); ok && kj == k {
			return int32(j)
		}
	}
	return -1
}

func hostKeyOf(r *scanner.Result) uint64 {
	leaf := r.Chain[0]
	return uint64(leaf.PublicKey.Type)<<32 | uint64(uint32(leaf.PublicKey.Bits))
}

func hostKeyContrib(r *scanner.Result) (uint64, bool, bool) {
	if len(r.Chain) == 0 {
		return 0, false, false
	}
	return hostKeyOf(r), r.Verify.Valid(), true
}

func hostKeyLabel(r *scanner.Result) string { return r.Chain[0].PublicKey.Label() }

func sigAlgoContrib(r *scanner.Result) (int, bool, bool) {
	if len(r.Chain) == 0 {
		return 0, false, false
	}
	return int(r.Chain[0].SignatureAlgorithm), r.Verify.Valid(), true
}

func sigAlgoLabel(r *scanner.Result) string { return r.Chain[0].SignatureAlgorithm.String() }

func combinedContrib(r *scanner.Result) (combKey, bool, bool) {
	if len(r.Chain) == 0 {
		return combKey{}, false, false
	}
	return combKey{hk: hostKeyOf(r), sig: int32(r.Chain[0].SignatureAlgorithm)}, r.Verify.Valid(), true
}

func combinedLabel(r *scanner.Result) string {
	leaf := r.Chain[0]
	return leaf.PublicKey.Label() + " / " + leaf.SignatureAlgorithm.String()
}

func versionContrib(r *scanner.Result) (int, bool, bool) {
	if !r.HasHTTPS() {
		return 0, false, false
	}
	if len(r.Chain) == 0 {
		return 0, false, true
	}
	return int(r.TLSVersion) + 1, r.Verify.Valid(), true
}

func versionLabel(r *scanner.Result) string {
	if len(r.Chain) == 0 {
		return "(no handshake)"
	}
	return r.TLSVersion.String()
}
