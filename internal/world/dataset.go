package world

import (
	"math/rand"
	"sort"
	"strconv"
)

// datasetSpec describes an authoritative host list (a GSA dataset or the
// ROK Government24 database) whose serving and validity marginals are known
// exactly from the paper's appendix tables.
type datasetSpec struct {
	// key prefixes generated hostnames to keep dataset namespaces disjoint.
	key string
	// suffix is the government domain suffix, e.g. "gov", "mil", "go.kr".
	suffix string
	// country is the ISO code.
	country string
	// Serving marginals at paper scale (pre-scaling).
	httpOnly, both, httpsOnly, unavailable int
	// valid is the number of valid-https hosts.
	valid int
	// invalid maps error classes to exact counts.
	invalid map[ErrorClass]int
	// caMix selects issuers.
	caMix []caWeight
	// cloudShare/cdnShare set hosting.
	cloudShare, cdnShare float64
	// buf is scratch space for hostname, reused across calls so each name
	// costs one allocation (the final string).
	buf []byte
}

// agencyHost builds the i-th hostname of a dataset.
func (d *datasetSpec) hostname(i int) string {
	word := agencyWords[i%len(agencyWords)]
	n := i / len(agencyWords)
	b := append(d.buf[:0], word...)
	if n > 0 {
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, '.')
	b = append(b, d.key...)
	b = append(b, '.')
	b = append(b, d.suffix...)
	d.buf = b
	return string(b)
}

// buildDataset realizes the spec as live sites and returns every hostname
// in the dataset, including the unavailable ones.
func (w *World) buildDataset(r *rand.Rand, f *certFactory, d *datasetSpec) []string {
	httpOnly := w.scaled(d.httpOnly, boolToInt(d.httpOnly > 0))
	both := w.scaled(d.both, boolToInt(d.both > 0))
	httpsOnly := w.scaled(d.httpsOnly, boolToInt(d.httpsOnly > 0))
	unavailable := w.scaled(d.unavailable, 0)

	// Build the https class deck with exact (scaled) counts.
	httpsTotal := both + httpsOnly
	deck := make([]ErrorClass, 0, httpsTotal)
	classes := make([]ErrorClass, 0, len(d.invalid))
	for class := range d.invalid {
		classes = append(classes, class)
	}
	// Fixed iteration order: the deck must be identical across builds so a
	// same-seed world assigns every host the same class (map order would
	// survive the shuffle as a different permutation).
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, class := range classes {
		for i := 0; i < w.scaled(d.invalid[class], boolToInt(d.invalid[class] > 0)); i++ {
			deck = append(deck, class)
		}
	}
	if len(deck) > httpsTotal {
		deck = deck[:httpsTotal]
	}
	for len(deck) < httpsTotal {
		deck = append(deck, ClassValid)
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })

	var hosts []string
	idx := 0
	next := func() string {
		h := d.hostname(idx)
		idx++
		hosts = append(hosts, h)
		return h
	}

	newSite := func(host string, serving Serving) *Site {
		s := &Site{Hostname: host, Country: d.country, Serving: serving}
		prof := Profile{CloudShare: d.cloudShare, CDNShare: d.cdnShare}
		w.assignHosting(s, prof, r)
		s.IP = w.allocIP(s.Provider)
		w.addSite(s)
		w.DNS.AddA(host, s.IP)
		return s
	}

	for i := 0; i < httpOnly; i++ {
		s := newSite(next(), HTTPOnly)
		s.Injected = ClassNone
	}
	di := 0
	for i := 0; i < both; i++ {
		s := newSite(next(), BothNoRedirect)
		f.configure(s, deck[di], d.caMix)
		di++
	}
	for i := 0; i < httpsOnly; i++ {
		serving := HTTPSOnly
		if r.Float64() < 0.7 {
			serving = BothRedirect
		}
		s := newSite(next(), serving)
		f.configure(s, deck[di], d.caMix)
		di++
	}
	for i := 0; i < unavailable; i++ {
		h := next()
		if r.Float64() < 0.6 {
			continue // NXDOMAIN
		}
		w.DNS.AddA(h, w.allocIP("Private"))
	}
	return hosts
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
