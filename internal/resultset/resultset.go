// Package resultset wraps a scan's results with indexes built in one
// deterministic pass: by Table 2 category and exception kind, by country,
// by issuing CA, by certificate fingerprint and key identity, by hosting
// provider and kind, and by top-list rank bucket — plus the cheap derived
// counts (the Table 2 tallies, key/signature/version cells) every
// experiment used to recompute with its own loop over the raw slice.
//
// A Set is built in one shot with New over a finished scan
// (scanner.ScanAll), assembled in host order from already-scanned rows
// with Assemble, or derived from a base Set with ApplyDelta. Once built,
// a Set is immutable: every analysis, report and disclosure pass serves
// itself from the same indexes, so the corpus is walked exactly once no
// matter how many tables and figures are derived from it.
//
// The build itself is two-pass: pass A walks the results once, interning
// every index key to a dense id and counting bucket cardinalities; pass B
// fills exact-size flat []int bucket arrays from the recorded ids. No
// bucket is grown incrementally and no per-result map insert happens on
// the category/exception hot path. The fingerprint and key-ID families
// are the exception to eager building: each Set builds them the same way
// over its chain-bearing rows on first use, because their key spaces
// grow with every certificate rotation a delta chain absorbs.
//
// Determinism contract: results are added in scan input order, every
// index bucket stores ascending result indices, and every key list
// (Countries, Issuers, Providers, ...) has a defined order — sorted for
// countries, first-seen for the rest. Nothing in this package iterates a
// map (enforced by govlint's maprange analyzer).
package resultset

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cert"
	"repro/internal/hosting"
	"repro/internal/scanner"
	"repro/internal/stats"
)

// Options configures the index build.
type Options struct {
	// CountryOf attributes a hostname to a country; hosts mapping to ""
	// are left out of the country index. Nil disables the country index.
	CountryOf func(hostname string) string
	// RankOf reports a hostname's public-top-list rank, when it has one.
	// Nil disables the rank-bucket index.
	RankOf func(hostname string) (int, bool)
	// RankBuckets is the number of equal-width rank buckets (Figure 7
	// uses 50); RankMax is the highest rank on the list. Both must be
	// positive for the rank index to build.
	RankBuckets int
	RankMax     int
}

// Counts carries the Table 2 tallies derived during the build pass.
type Counts struct {
	// Total counts available hosts (the paper's "websites considered").
	Total       int
	Unavailable int
	HTTPOnly    int
	HTTPS       int
	Valid       int
	Invalid     int
	// Exceptions totals the exception block of the invalid categories.
	Exceptions int
	// BothSchemes counts hosts serving full content on http and https.
	BothSchemes int
	// HSTS counts valid hosts sending Strict-Transport-Security.
	HSTS int
}

// Cell is one label's aggregate: hosts carrying the label and how many of
// them validate (the bars of Figures 4/9/12 and the version table).
type Cell struct {
	Label string
	Total int
	Valid int
}

// CountryAgg is one country's availability/https/validity tally.
type CountryAgg struct {
	Country   string
	Hosts     int
	Available int
	HTTPS     int
	Valid     int
}

// Set is an immutable scan corpus plus its indexes. Accessors return
// internal slices; callers must treat them as read-only.
type Set struct {
	opts    Options
	results []scanner.Result

	// overlay, when non-nil, marks this Set as an unmaterialized delta
	// generation: its rows are the backing slice in results — shared
	// with the base generation, never written — with overlay's entries
	// substituted (pointers into the generation's own changed-row slab,
	// immutable once installed). Kept small relative to the corpus by
	// ApplyDelta's compaction, so per-row access stays one map probe.
	overlay map[int]*scanner.Result
	// flat caches the contiguous patched slice for Results/WriteJSONL,
	// built on first use — a delta generation pays the O(corpus) copy
	// only if something actually asks for the flat view.
	flatOnce sync.Once
	flat     []scanner.Result

	// byHost is built lazily on first Lookup: the host index is off the
	// aggregation hot path and a per-result string map insert is the
	// single most expensive step of an eager build.
	hostOnce sync.Once
	byHost   map[string]int

	counts Counts

	// Bucket families: a shared intern table (key → slot) plus this
	// generation's slot-indexed buckets. Key order (first-seen, except
	// countries which sort) is carried alongside and re-derived lazily
	// after a delta. See intern.go.
	catIdx  index[scanner.Category]
	excIdx  index[scanner.Exception] // ExcNone excluded
	ccIdx   index[string]
	provIdx index[string]       // available hosts only
	kindIdx index[hosting.Kind] // available hosts only
	issIdx  index[string]       // leaf issuer CN, "" excluded

	// The fingerprint and key-ID families are built per generation on
	// first use (chainKeyIndex); ApplyDelta never maintains them, because
	// their key spaces grow with every certificate rotation.
	keysOnce sync.Once
	fpIdx    index[[32]byte]
	kidIdx   index[cert.KeyID]

	countries []string // sorted at build
	ccAggs    map[string]CountryAgg

	chained        []int    // indices with a retrieved chain
	invalidIdx     []int    // indices measured invalid https, ascending
	invalidHosts   []string // hostnames of invalidIdx, same order
	failedUpgrades []int    // valid https but full content still on http

	ranked      []int
	rankBuckets [][]int

	hostKeyIdx  cellIndex[uint64] // (type,bits) numeric identity
	sigAlgoIdx  cellIndex[int]    // signature algorithm enum
	combinedIdx cellIndex[combKey]
	versionIdx  cellIndex[int] // version+1; 0 = no-handshake sentinel

	weakSigHosts  int
	smallRSAHosts int
	issuerDomain  int // chain-bearing results with a non-empty issuer CN
}

// combKey is the value identity of one key-type × signing-algorithm
// cell — stable across delta generations, unlike the per-build cell
// positions.
type combKey struct {
	hk  uint64
	sig int32
}

// New builds a Set from an already-collected result slice (the slice is
// retained; the caller must not mutate it afterwards).
func New(results []scanner.Result, opts Options) *Set {
	return build(results, opts)
}

// Assemble builds a Set over hosts, in that order, from rows that were
// already scanned: each host takes its row from the first source that
// lists it. A host no source lists is an error. Per-host results are
// scan-order independent on fault-free worlds, so the assembled Set is
// bit-identical to a fresh scan of hosts.
func Assemble(hosts []string, opts Options, sources ...[]scanner.Result) (*Set, error) {
	n := 0
	for _, src := range sources {
		n += len(src)
	}
	byHost := make(map[string]*scanner.Result, n)
	for _, src := range sources {
		for i := range src {
			if _, dup := byHost[src[i].Hostname]; !dup {
				byHost[src[i].Hostname] = &src[i]
			}
		}
	}
	results := make([]scanner.Result, len(hosts))
	for i, h := range hosts {
		r, ok := byHost[h]
		if !ok {
			return nil, fmt.Errorf("resultset: host %q is in no source", h)
		}
		results[i] = *r
	}
	return build(results, opts), nil
}

// densePos maps a small non-negative integer key (an enum value) to its
// first-seen position. Zero means unseen; stored values are position+1.
type densePos struct{ pos []int32 }

func (d *densePos) lookup(key int) int32 {
	if key < len(d.pos) {
		return d.pos[key] - 1
	}
	return -1
}

func (d *densePos) insert(key int, p int32) {
	for key >= len(d.pos) {
		d.pos = append(d.pos, 0)
	}
	d.pos[key] = p + 1
}

// flatIndex is a family of buckets stored as subslices of one exact-size
// flat array, filled through per-bucket cursors.
type flatIndex struct {
	flat  []int
	start []int // len(counts)+1; bucket p is flat[start[p]:start[p+1]]
	cur   []int
}

func newFlatIndex(counts []int32) *flatIndex {
	f := &flatIndex{start: make([]int, len(counts)+1), cur: make([]int, len(counts))}
	total := 0
	for p, c := range counts {
		f.start[p] = total
		f.cur[p] = total
		total += int(c)
	}
	f.start[len(counts)] = total
	f.flat = make([]int, total)
	return f
}

func (f *flatIndex) put(p int32, i int) {
	c := f.cur[p]
	f.flat[c] = i
	f.cur[p] = c + 1
}

func (f *flatIndex) bucket(p int) []int {
	lo, hi := f.start[p], f.start[p+1]
	return f.flat[lo:hi:hi]
}

// Per-result flag bits recorded during pass A.
const (
	flagInvalid = 1 << iota
	flagFailedUpgrade
	flagRanked
	flagChained
)

const excNonePos = 255 // excP sentinel: result carries no exception

// build runs the two-pass index construction over a complete result
// slice. Pass A walks the results once, interning every index key to a
// dense first-seen position (recorded in per-result scratch arrays) and
// counting bucket cardinalities; pass B allocates each bucket family as
// one exact-size flat array and fills it from the scratch ids. The
// resulting orders and bucket contents are identical to the former
// incremental build — first occurrence in input order decides key order,
// and ascending walk order decides bucket order.
func build(results []scanner.Result, opts Options) *Set {
	n := len(results)
	s := &Set{opts: opts, results: results}

	// Per-result scratch: the dense position of each key the result
	// contributes to, or a negative/sentinel value when it doesn't.
	catP := make([]uint8, n)
	excP := make([]uint8, n)
	ccP := make([]int32, n)
	provP := make([]int32, n)
	kindP := make([]int8, n)
	issP := make([]int32, n)
	rankB := make([]int16, n)
	flags := make([]uint8, n)

	// Key interning state, first-seen order, and per-bucket counts.
	var catPos, excPos, kindPos, sigPos, verPos densePos
	var catCount, excCount, kindCount, ccCount, provCount, issCount []int32
	var rbCount []int32

	var cats []scanner.Category
	var excs []scanner.Exception
	var ccs, provs, isss []string
	var kinds []hosting.Kind

	ccPos := make(map[string]int32, 64)
	var ccAgg []CountryAgg
	provPos := make(map[string]int32, 16)
	issPos := make(map[string]int32, 64)
	hkPos := make(map[uint64]int32, 8)
	combPos := make(map[uint64]int32, 16)

	// Cell state: slot-ordered cells plus each cell's first contributing
	// result index and value key (what ApplyDelta rekeys on).
	var hostKeyCells, sigAlgoCells, combinedCells, versionCells []Cell
	var hkFirst, sigFirst, combFirst, verFirst []int32
	var hkKeys []uint64
	var sigKeys, verKeys []int
	var combKeys []combKey

	rankEnabled := opts.RankOf != nil && opts.RankBuckets > 0 && opts.RankMax > 0
	if rankEnabled {
		rbCount = make([]int32, opts.RankBuckets)
	}

	chainedN, invalidN, failedN, rankedN := 0, 0, 0, 0

	for i := range results {
		r := &results[i]

		cat := r.Category()
		p := catPos.lookup(int(cat))
		if p < 0 {
			p = int32(len(cats))
			catPos.insert(int(cat), p)
			cats = append(cats, cat)
			catCount = append(catCount, 0)
		}
		catP[i] = uint8(p)
		catCount[p]++
		tallySigned(&s.counts, r, cat, 1)

		excP[i] = excNonePos
		if e := r.Exception; e != scanner.ExcNone {
			p := excPos.lookup(int(e))
			if p < 0 {
				p = int32(len(excs))
				excPos.insert(int(e), p)
				excs = append(excs, e)
				excCount = append(excCount, 0)
			}
			excP[i] = uint8(p)
			excCount[p]++
		}

		ccP[i] = -1
		if opts.CountryOf != nil {
			if cc := opts.CountryOf(r.Hostname); cc != "" {
				p, seen := ccPos[cc]
				if !seen {
					p = int32(len(ccs))
					ccPos[cc] = p
					ccs = append(ccs, cc)
					ccCount = append(ccCount, 0)
					ccAgg = append(ccAgg, CountryAgg{Country: cc})
				}
				ccP[i] = p
				ccCount[p]++
				agg := &ccAgg[p]
				agg.Hosts++
				if r.Available {
					agg.Available++
					if r.HasHTTPS() {
						agg.HTTPS++
					}
					if r.ValidHTTPS() {
						agg.Valid++
					}
				}
			}
		}

		provP[i], kindP[i] = -1, -1
		if r.Available {
			p, seen := provPos[r.Provider]
			if !seen {
				p = int32(len(provs))
				provPos[r.Provider] = p
				provs = append(provs, r.Provider)
				provCount = append(provCount, 0)
			}
			provP[i] = p
			provCount[p]++

			kp := kindPos.lookup(int(r.HostKind))
			if kp < 0 {
				kp = int32(len(kinds))
				kindPos.insert(int(r.HostKind), kp)
				kinds = append(kinds, r.HostKind)
				kindCount = append(kindCount, 0)
			}
			kindP[i] = int8(kp)
			kindCount[kp]++
		}

		var f uint8
		if cat.IsInvalidHTTPS() {
			f |= flagInvalid
			invalidN++
		}
		if r.ServesHTTP && r.ServesHTTPS && r.ValidHTTPS() {
			f |= flagFailedUpgrade
			failedN++
		}

		if r.HasHTTPS() {
			// Version cells are keyed by the numeric protocol version
			// (key 0 is the no-handshake sentinel); the label string is
			// materialized once per distinct version, not per result.
			key, valid := 0, false
			if len(r.Chain) > 0 {
				key = int(r.TLSVersion) + 1
				valid = r.Verify.Valid()
			}
			vp := verPos.lookup(key)
			if vp < 0 {
				vp = int32(len(versionCells))
				verPos.insert(key, vp)
				label := "(no handshake)"
				if key != 0 {
					label = r.TLSVersion.String()
				}
				versionCells = append(versionCells, Cell{Label: label})
				verKeys = append(verKeys, key)
				verFirst = append(verFirst, int32(i))
			}
			cell := &versionCells[vp]
			cell.Total++
			if valid {
				cell.Valid++
			}
		}

		issP[i] = -1
		if len(r.Chain) > 0 {
			f |= flagChained
			chainedN++
			leaf := r.Chain[0]

			if cn := leaf.Issuer.CommonName; cn != "" {
				s.issuerDomain++
				p, seen := issPos[cn]
				if !seen {
					p = int32(len(isss))
					issPos[cn] = p
					isss = append(isss, cn)
					issCount = append(issCount, 0)
				}
				issP[i] = p
				issCount[p]++
			}

			// Key/signature cells intern on numeric identities — the
			// (type,bits) pair, the algorithm enum, and the pair of cell
			// positions — so the Sprintf-built labels are produced once
			// per distinct key shape instead of once per result.
			valid := r.Verify.Valid()
			hk := uint64(leaf.PublicKey.Type)<<32 | uint64(uint32(leaf.PublicKey.Bits))
			hp, seen := hkPos[hk]
			if !seen {
				hp = int32(len(hostKeyCells))
				hkPos[hk] = hp
				hostKeyCells = append(hostKeyCells, Cell{Label: leaf.PublicKey.Label()})
				hkKeys = append(hkKeys, hk)
				hkFirst = append(hkFirst, int32(i))
			}
			bumpCell(&hostKeyCells[hp], valid)

			sp := sigPos.lookup(int(leaf.SignatureAlgorithm))
			if sp < 0 {
				sp = int32(len(sigAlgoCells))
				sigPos.insert(int(leaf.SignatureAlgorithm), sp)
				sigAlgoCells = append(sigAlgoCells, Cell{Label: leaf.SignatureAlgorithm.String()})
				sigKeys = append(sigKeys, int(leaf.SignatureAlgorithm))
				sigFirst = append(sigFirst, int32(i))
			}
			bumpCell(&sigAlgoCells[sp], valid)

			// The within-build intern key is the fast (hp,sp) slot pair;
			// the value key recorded for delta is (hk, sig), which is
			// stable across generations.
			ck := uint64(hp)<<32 | uint64(sp)
			cp, seen := combPos[ck]
			if !seen {
				cp = int32(len(combinedCells))
				combPos[ck] = cp
				combinedCells = append(combinedCells, Cell{
					//lint:allow hotalloc runs once per distinct key/sig combination (a few dozen), not per result
					Label: hostKeyCells[hp].Label + " / " + sigAlgoCells[sp].Label,
				})
				combKeys = append(combKeys, combKey{hk: hk, sig: int32(leaf.SignatureAlgorithm)})
				combFirst = append(combFirst, int32(i))
			}
			bumpCell(&combinedCells[cp], valid)

			if leaf.SignatureAlgorithm.IsWeak() {
				s.weakSigHosts++
			}
			if leaf.PublicKey.Type == cert.KeyRSA && leaf.PublicKey.Bits < 2048 {
				s.smallRSAHosts++
			}
		}

		rankB[i] = -1
		if rankEnabled {
			if rank, ok := opts.RankOf(r.Hostname); ok {
				f |= flagRanked
				rankedN++
				if bkt, ok := rankBucket(rank, opts); ok {
					rankB[i] = int16(bkt)
					rbCount[bkt]++
				}
			}
		}
		flags[i] = f
	}

	// Pass B: exact-size flat buckets, filled in ascending result order.
	catFlat := newFlatIndex(catCount)
	excFlat := newFlatIndex(excCount)
	ccFlat := newFlatIndex(ccCount)
	provFlat := newFlatIndex(provCount)
	kindFlat := newFlatIndex(kindCount)
	issFlat := newFlatIndex(issCount)
	var rbFlat *flatIndex
	if rankEnabled {
		rbFlat = newFlatIndex(rbCount)
	}

	s.chained = make([]int, 0, chainedN)
	s.invalidIdx = make([]int, 0, invalidN)
	s.invalidHosts = make([]string, 0, invalidN)
	s.failedUpgrades = make([]int, 0, failedN)
	s.ranked = make([]int, 0, rankedN)

	for i := 0; i < n; i++ {
		catFlat.put(int32(catP[i]), i)
		if p := excP[i]; p != excNonePos {
			excFlat.put(int32(p), i)
		}
		if p := ccP[i]; p >= 0 {
			ccFlat.put(p, i)
		}
		if p := provP[i]; p >= 0 {
			provFlat.put(p, i)
			kindFlat.put(int32(kindP[i]), i)
		}
		f := flags[i]
		if f&flagChained != 0 {
			s.chained = append(s.chained, i)
		}
		if p := issP[i]; p >= 0 {
			issFlat.put(p, i)
		}
		if f&flagInvalid != 0 {
			s.invalidIdx = append(s.invalidIdx, i)
			s.invalidHosts = append(s.invalidHosts, results[i].Hostname)
		}
		if f&flagFailedUpgrade != 0 {
			s.failedUpgrades = append(s.failedUpgrades, i)
		}
		if f&flagRanked != 0 {
			s.ranked = append(s.ranked, i)
			if b := rankB[i]; b >= 0 {
				rbFlat.put(int32(b), i)
			}
		}
	}

	// Wrap the flat arrays and interning maps into the index families.
	// The pass-A pos maps are adopted as the shared intern tables at no
	// extra cost; key slices double as the first-seen public orders.
	s.catIdx = builtIndex(cats, nil, catFlat)
	s.excIdx = builtIndex(excs, nil, excFlat)
	s.ccIdx = builtIndex(ccs, ccPos, ccFlat)
	s.provIdx = builtIndex(provs, provPos, provFlat)
	s.kindIdx = builtIndex(kinds, nil, kindFlat)
	s.issIdx = builtIndex(isss, issPos, issFlat)

	// Countries sort; the intern table keeps slot (first-seen) order, so
	// the sorted public list must be a copy.
	s.countries = append([]string(nil), ccs...)
	sort.Strings(s.countries)
	s.ccAggs = make(map[string]CountryAgg, len(ccs))
	for p, cc := range ccs {
		s.ccAggs[cc] = ccAgg[p]
	}

	if rankEnabled {
		s.rankBuckets = make([][]int, opts.RankBuckets)
		for b := range s.rankBuckets {
			if rbCount[b] > 0 {
				s.rankBuckets[b] = rbFlat.bucket(b)
			}
		}
	}

	s.hostKeyIdx = builtCells(hkKeys, hkPos, hostKeyCells, hkFirst)
	s.sigAlgoIdx = builtCells(sigKeys, nil, sigAlgoCells, sigFirst)
	s.combinedIdx = builtCells(combKeys, nil, combinedCells, combFirst)
	s.versionIdx = builtCells(verKeys, nil, versionCells, verFirst)
	return s
}

// buildKeyIndexes builds this generation's fingerprint and key-ID
// families (once, on first use).
func (s *Set) buildKeyIndexes() {
	s.fpIdx = chainKeyIndex(s, (*cert.Certificate).Fingerprint)
	s.kidIdx = chainKeyIndex(s, leafKeyID)
}

func leafKeyID(c *cert.Certificate) cert.KeyID { return c.PublicKey.ID }

// chainKeyIndex builds one leaf-certificate key family over the
// chain-bearing rows with the same two passes as build: intern each
// row's key to its first-seen slot while counting, then fill exact-size
// flat buckets. Walking s.chained ascending gives the same key order and
// ascending buckets as a walk of the whole corpus, and rows are read
// through At, so a delta generation builds over its overlay without
// materializing the flat view.
func chainKeyIndex[K comparable](s *Set, keyOf func(*cert.Certificate) K) index[K] {
	slots := make([]int32, len(s.chained))
	pos := make(map[K]int32, len(s.chained))
	var keys []K
	var counts []int32
	for j, i := range s.chained {
		k := keyOf(s.At(i).Chain[0])
		p, seen := pos[k]
		if !seen {
			p = int32(len(keys))
			pos[k] = p
			keys = append(keys, k)
			counts = append(counts, 0)
		}
		slots[j] = p
		counts[p]++
	}
	f := newFlatIndex(counts)
	for j, i := range s.chained {
		f.put(slots[j], i)
	}
	return builtIndex(keys, pos, f)
}

func bumpCell(c *Cell, valid bool) {
	c.Total++
	if valid {
		c.Valid++
	}
}

// tallySigned adjusts the Table 2 counts by one result's contribution,
// mirroring the taxonomy walk the analysis layer used to run per
// experiment. The build pass adds (d=1); ApplyDelta retracts a replaced
// result (d=-1) before adding its successor.
func tallySigned(c *Counts, r *scanner.Result, cat scanner.Category, d int) {
	if cat == scanner.CatUnavailable {
		c.Unavailable += d
		return
	}
	c.Total += d
	switch {
	case cat == scanner.CatHTTPOnly:
		c.HTTPOnly += d
		return
	case cat == scanner.CatValid:
		c.HTTPS += d
		c.Valid += d
		if r.HSTS {
			c.HSTS += d
		}
	default:
		c.HTTPS += d
		c.Invalid += d
		if cat.IsException() {
			c.Exceptions += d
		}
	}
	if r.ServesHTTP && r.ServesHTTPS {
		c.BothSchemes += d
	}
}

// rankBucket maps a rank onto its Figure 7 bucket via stats.BucketIndex
// over [1, RankMax+1), so bucket membership matches the binned rates bit
// for bit.
func rankBucket(rank int, opts Options) (int, bool) {
	return stats.BucketIndex(float64(rank), 1, float64(opts.RankMax)+1, opts.RankBuckets)
}

// --- accessors ---

// Len returns the number of results.
func (s *Set) Len() int { return len(s.results) }

// Results returns the results in scan input order (read-only). On a
// delta generation the contiguous view is materialized on first call
// and cached.
func (s *Set) Results() []scanner.Result { return s.materialize() }

// WriteJSONL streams the set's results as JSON lines through the zero-copy
// exporter, in scan input order.
func (s *Set) WriteJSONL(w io.Writer) error { return scanner.WriteJSONL(w, s.materialize()) }

// materialize returns the contiguous patched result slice, building it
// lazily for unmaterialized delta generations.
func (s *Set) materialize() []scanner.Result {
	if s.overlay == nil {
		return s.results
	}
	s.flatOnce.Do(func() {
		flat := make([]scanner.Result, len(s.results))
		copy(flat, s.results)
		// Index-keyed writes into distinct slots are order-independent,
		// so the unordered walk cannot affect any derived output.
		//lint:allow maprange overlay entries write disjoint indices; iteration order is immaterial
		for i, r := range s.overlay {
			flat[i] = *r
		}
		s.flat = flat
	})
	return s.flat
}

// At returns the i-th result.
func (s *Set) At(i int) *scanner.Result {
	if s.overlay != nil {
		if r, ok := s.overlay[i]; ok {
			return r
		}
	}
	return &s.results[i]
}

// Lookup finds a hostname's result. The host index is built lazily on
// first use (and is safe for concurrent lookups).
func (s *Set) Lookup(hostname string) (*scanner.Result, bool) {
	s.hostOnce.Do(s.buildHostIndex)
	i, ok := s.byHost[hostname]
	if !ok {
		return nil, false
	}
	return s.At(i), true
}

func (s *Set) buildHostIndex() {
	if s.byHost != nil {
		// Pre-filled by ApplyDelta: the corpus host list is unchanged, so
		// the index is inherited from the base generation.
		return
	}
	m := make(map[string]int, len(s.results))
	for i := range s.results {
		m[s.results[i].Hostname] = i
	}
	s.byHost = m
}

// CountryOf attributes a hostname using the build options' attribution
// function ("" when none was configured).
func (s *Set) CountryOf(hostname string) string {
	if s.opts.CountryOf == nil {
		return ""
	}
	return s.opts.CountryOf(hostname)
}

// Counts returns the Table 2 tallies.
func (s *Set) Counts() Counts { return s.counts }

// CategoryCount returns the number of results in one Table 2 category.
func (s *Set) CategoryCount(cat scanner.Category) int { return len(s.catIdx.bucket(cat)) }

// Categories lists the categories present, in first-seen order.
func (s *Set) Categories() []scanner.Category { return s.catIdx.orderedKeys() }

// ByCategory returns the result indices in one category.
func (s *Set) ByCategory(cat scanner.Category) []int { return s.catIdx.bucket(cat) }

// Exceptions lists the exception kinds present (ExcNone excluded), in
// first-seen order.
func (s *Set) Exceptions() []scanner.Exception { return s.excIdx.orderedKeys() }

// ByException returns the result indices carrying one exception kind.
func (s *Set) ByException(e scanner.Exception) []int { return s.excIdx.bucket(e) }

// Countries lists the countries present, sorted.
func (s *Set) Countries() []string { return s.countries }

// ByCountry returns the result indices attributed to one country.
func (s *Set) ByCountry(cc string) []int { return s.ccIdx.bucket(cc) }

// CountryAggs returns per-country availability tallies, sorted by country.
func (s *Set) CountryAggs() []CountryAgg {
	out := make([]CountryAgg, len(s.countries))
	for i, cc := range s.countries {
		out[i] = s.ccAggs[cc]
	}
	return out
}

// Issuers lists the issuing-CA common names present, in first-seen order
// (certificates without issuer information are not indexed).
func (s *Set) Issuers() []string { return s.issIdx.orderedKeys() }

// ByIssuer returns the chain-bearing result indices for one issuer CN.
func (s *Set) ByIssuer(cn string) []int { return s.issIdx.bucket(cn) }

// IssuerAnalyzed counts chain-bearing results with issuer information —
// the denominator of the EV statistics.
func (s *Set) IssuerAnalyzed() int { return s.issuerDomain }

// Fingerprints lists the distinct leaf-certificate fingerprints, in
// first-seen order.
func (s *Set) Fingerprints() [][32]byte {
	s.keysOnce.Do(s.buildKeyIndexes)
	return s.fpIdx.orderedKeys()
}

// ByFingerprint returns the result indices serving one exact certificate.
func (s *Set) ByFingerprint(fp [32]byte) []int {
	s.keysOnce.Do(s.buildKeyIndexes)
	return s.fpIdx.bucket(fp)
}

// KeyIDs lists the distinct leaf public-key identities, in first-seen
// order.
func (s *Set) KeyIDs() []cert.KeyID {
	s.keysOnce.Do(s.buildKeyIndexes)
	return s.kidIdx.orderedKeys()
}

// ByKeyID returns the result indices serving one public key.
func (s *Set) ByKeyID(id cert.KeyID) []int {
	s.keysOnce.Do(s.buildKeyIndexes)
	return s.kidIdx.bucket(id)
}

// Providers lists the hosting providers of available hosts, first-seen.
func (s *Set) Providers() []string { return s.provIdx.orderedKeys() }

// ByProvider returns the available result indices on one provider.
func (s *Set) ByProvider(p string) []int { return s.provIdx.bucket(p) }

// ByKind returns the available result indices in one hosting kind.
func (s *Set) ByKind(k hosting.Kind) []int { return s.kindIdx.bucket(k) }

// Chained returns the indices of results with a retrieved chain.
func (s *Set) Chained() []int { return s.chained }

// InvalidHosts lists hostnames measured invalid https, in input order.
func (s *Set) InvalidHosts() []string { return s.invalidHosts }

// FailedUpgrades returns the indices of hosts with valid https that still
// serve full content over plain http without an upgrade (§5.1).
func (s *Set) FailedUpgrades() []int { return s.failedUpgrades }

// Ranked returns the indices of results carrying a top-list rank.
func (s *Set) Ranked() []int { return s.ranked }

// RankBuckets returns the rank-bucket index (nil when no ranker was
// configured): bucket b holds the indices of ranked results in the b-th
// equal-width bucket over [1, RankMax].
func (s *Set) RankBuckets() [][]int { return s.rankBuckets }

// RankOf reports a hostname's rank via the build options' ranker.
func (s *Set) RankOf(hostname string) (int, bool) {
	if s.opts.RankOf == nil {
		return 0, false
	}
	return s.opts.RankOf(hostname)
}

// HostKeyCells returns per-host-key-type validity cells (first-seen).
func (s *Set) HostKeyCells() []Cell { return s.hostKeyIdx.orderedCells() }

// SigAlgoCells returns per-signing-algorithm validity cells (first-seen).
func (s *Set) SigAlgoCells() []Cell { return s.sigAlgoIdx.orderedCells() }

// CombinedCells returns key-type × signing-algorithm cells (first-seen).
func (s *Set) CombinedCells() []Cell { return s.combinedIdx.orderedCells() }

// VersionCells returns per-negotiated-TLS-version cells over hosts that
// attempt https, with "(no handshake)" for protocol-layer failures.
func (s *Set) VersionCells() []Cell { return s.versionIdx.orderedCells() }

// WeakSignatureHosts counts hosts whose leaf is signed with MD5 or SHA1.
func (s *Set) WeakSignatureHosts() int { return s.weakSigHosts }

// SmallRSAHosts counts hosts with RSA keys below 2048 bits.
func (s *Set) SmallRSAHosts() int { return s.smallRSAHosts }
