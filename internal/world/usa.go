package world

import (
	"math/rand"
	"sort"
)

// USAData holds the GSA case study (§6.1, Appendix A.1): the fifteen
// authoritative datasets of US government hostnames.
type USAData struct {
	// Datasets maps the dataset key (Table A.2's A-O) to its hostnames.
	Datasets []GSADataset
}

// GSADataset is one GSA host list.
type GSADataset struct {
	Key  string
	Name string
	// Hosts lists every hostname, including unreachable ones.
	Hosts []string
}

// AllHosts returns the union of every dataset's hostnames, sorted.
func (u *USAData) AllHosts() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range u.Datasets {
		for _, h := range d.Hosts {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	sort.Strings(out)
	return out
}

// gsaRow carries one row of Tables A.1 + A.2: serving marginals and the
// exact error-class counts (E5..E13).
type gsaRow struct {
	key, name                  string
	suffix                     string
	total, http, both, https   int
	valid                      int
	expired, ssChain, localIss int
	selfSigned, mismatch       int
	timeout, refused, unknown  int
	ipMismatch                 int
}

// gsaRows transcribes Tables A.1 and A.2.
var gsaRows = []gsaRow{
	{key: "state", name: "Govt. State Only Domains", suffix: "gov",
		total: 827, http: 203, both: 106, https: 561, valid: 406,
		expired: 5, ssChain: 1, localIss: 8, selfSigned: 10, mismatch: 80,
		timeout: 20, refused: 3, unknown: 28},
	{key: "native", name: "Govt. Native Sovereign Only Domains", suffix: "gov",
		total: 53, http: 24, both: 15, https: 37, valid: 27,
		localIss: 1, selfSigned: 4, mismatch: 5},
	{key: "rdns", name: "rDNS Federal Snapshot", suffix: "gov",
		total: 8896, http: 142, both: 68, https: 3614, valid: 3370,
		expired: 19, ssChain: 9, localIss: 73, selfSigned: 2, mismatch: 98,
		timeout: 6, refused: 6, unknown: 31},
	{key: "regional", name: "Govt. Regional Only Domains", suffix: "gov",
		total: 51, http: 18, both: 8, https: 32, valid: 23,
		localIss: 1, selfSigned: 3, mismatch: 4, timeout: 1},
	{key: "notused", name: "Govt. Not used Domains", suffix: "gov",
		total: 2511, http: 845, both: 474, https: 1509, valid: 925,
		expired: 16, ssChain: 8, localIss: 27, selfSigned: 90, mismatch: 249,
		timeout: 53, refused: 19, unknown: 122},
	{key: "ocsp", name: "Govt. OCSP CRL", suffix: "gov",
		total: 15, http: 12, both: 0, https: 0, valid: 0},
	{key: "quasi", name: "Govt. Quasi governmental Only Domains", suffix: "gov",
		total: 64, http: 7, both: 4, https: 50, valid: 36,
		mismatch: 4, timeout: 6, unknown: 4},
	{key: "eot2016", name: "End of Term 2016 Snapshot", suffix: "gov",
		total: 177969, http: 16079, both: 9190, https: 56531, valid: 45789,
		expired: 212, ssChain: 80, localIss: 1320, selfSigned: 555,
		mismatch: 5982, timeout: 337, refused: 268, unknown: 1419},
	{key: "censys", name: "Censys Federal Snapshot", suffix: "gov",
		total: 47909, http: 475, both: 203, https: 10415, valid: 9737,
		expired: 53, ssChain: 20, localIss: 203, selfSigned: 3,
		mismatch: 184, timeout: 18, refused: 151, unknown: 46},
	{key: "other", name: "Other Websites", suffix: "gov",
		total: 14330, http: 157, both: 98, https: 3382, valid: 3096,
		expired: 15, ssChain: 2, localIss: 44, selfSigned: 7,
		mismatch: 173, timeout: 15, refused: 15, unknown: 14, ipMismatch: 1},
	{key: "federal", name: "Govt. Federal Only Domains", suffix: "gov",
		total: 391, http: 77, both: 39, https: 213, valid: 159,
		expired: 3, localIss: 2, selfSigned: 5, mismatch: 29,
		timeout: 5, refused: 4, unknown: 6},
	{key: "currentfed", name: "Govt. Current Federal Domains", suffix: "gov",
		total: 1249, http: 32, both: 19, https: 892, valid: 811,
		expired: 4, ssChain: 1, localIss: 11, mismatch: 30,
		timeout: 14, refused: 3, unknown: 18},
	{key: "local", name: "Govt. Local Only Domains", suffix: "gov",
		total: 6228, http: 2476, both: 1544, https: 4751, valid: 3613,
		expired: 34, ssChain: 11, localIss: 89, selfSigned: 112,
		mismatch: 584, timeout: 51, refused: 34, unknown: 223},
	{key: "dotmil", name: "DOT .MIL (Dept. of Defense)", suffix: "mil",
		total: 89, http: 10, both: 6, https: 36, valid: 29,
		localIss: 3, mismatch: 3, timeout: 1},
	{key: "county", name: "Govt. County Only Domains", suffix: "gov",
		total: 1399, http: 534, both: 278, https: 883, valid: 630,
		expired: 7, ssChain: 2, localIss: 25, selfSigned: 13, mismatch: 124,
		timeout: 8, refused: 4, unknown: 70},
}

// buildUSA realizes the fifteen GSA datasets.
func (w *World) buildUSA(r *rand.Rand) {
	f := newCertFactory(w, rand.New(rand.NewSource(r.Int63())))
	usa := &USAData{}
	for _, row := range gsaRows {
		spec := row.toSpec()
		hosts := w.buildDataset(rand.New(rand.NewSource(r.Int63())), f, spec)
		usa.Datasets = append(usa.Datasets, GSADataset{Key: row.key, Name: row.name, Hosts: hosts})
	}
	w.USA = usa
}

func (row gsaRow) toSpec() *datasetSpec {
	union := row.http + row.https - row.both
	unavailable := row.total - union
	if unavailable < 0 {
		unavailable = 0
	}
	return &datasetSpec{
		key:         "us-" + row.key,
		suffix:      row.suffix,
		country:     "us",
		httpOnly:    row.http - row.both,
		both:        row.both,
		httpsOnly:   row.https - row.both,
		unavailable: unavailable,
		valid:       row.valid,
		invalid: map[ErrorClass]int{
			ClassExpired:          row.expired,
			ClassSelfSignedChain:  row.ssChain,
			ClassLocalIssuer:      row.localIss,
			ClassSelfSigned:       row.selfSigned,
			ClassHostnameMismatch: row.mismatch + row.ipMismatch,
			ClassExcTimeout:       row.timeout,
			ClassExcRefused:       row.refused,
			ClassExcSSLProto:      row.unknown, // "unknown exceptions"
		},
		caMix:      caMixUSA,
		cloudShare: 0.095,
		cdnShare:   0.035,
	}
}
