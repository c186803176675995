package lint

// DeterministicPackages are the packages whose output feeds the paper's
// tables and must be bit-identical across same-seed runs; maprange
// enforces ordered iteration inside them. World generation, scanning,
// verification, the ACME CA and renewal fleet, the dataset/result-set
// aggregation layer, the continuous-observatory loop, and the
// reporting/statistics layers all qualify: a single unordered map walk in
// any of them reorders RNG draws, index buckets, order dispatch, queue
// admissions, or report rows.
var DeterministicPackages = []string{
	"repro/internal/world",
	"repro/internal/scanner",
	"repro/internal/verify",
	"repro/internal/core",
	"repro/internal/acme",
	"repro/internal/acmefleet",
	"repro/internal/dataset",
	"repro/internal/resultset",
	"repro/internal/observatory",
	"repro/internal/report",
	"repro/internal/stats",
	"repro/internal/serve",
	"repro/internal/serve/loadgen",
}

// WallClockPackages are the packages whose business is genuinely the wall
// clock, exempt from walltime as a package rather than line by line:
// simclock implements the Real clock.
var WallClockPackages = []string{
	"repro/internal/simclock",
}

// LongRunningPackages are the packages whose goroutines live for a whole
// suite run (fleet dispatch, the scan worker pools, the observatory loop,
// the query API and its load generator), plus the dataset registry and
// result-set layer those scans feed and the experiment suite in core,
// which spawn nothing today but stay policed so a future spawn there
// cannot leak; chanleak polices their spawn sites.
var LongRunningPackages = []string{
	"repro/internal/core",
	"repro/internal/acmefleet",
	"repro/internal/dataset",
	"repro/internal/resultset",
	"repro/internal/scanner",
	"repro/internal/observatory",
	"repro/internal/serve",
	"repro/internal/serve/loadgen",
}

// HotPathFuncs is the declared zero-alloc hot set hotalloc enforces: the
// simulated connection substrate (simnet pipe buffers, the tlssim record
// reader and application-data reads), the httpsim wire codecs, the ACME
// API's append-built JSON encoders and strict decoder, the scanner probe
// loop and zero-copy JSON exporter, the cert
// fingerprint/base64 encoders, and the result-set build with its lazily
// built fingerprint/key-ID families. Additions here are a reviewed
// contract — a function joins the hot set when a bench gate depends on
// its allocation behavior.
var HotPathFuncs = []string{
	"repro/internal/simnet.pipeBuffer.read",
	"repro/internal/simnet.pipeBuffer.write",
	"repro/internal/tlssim.recordReader.*",
	"repro/internal/tlssim.Conn.Read",
	"repro/internal/httpsim.Read*",
	"repro/internal/httpsim.Write*",
	"repro/internal/httpsim.Request.Write",
	"repro/internal/httpsim.readPooled",
	"repro/internal/httpsim.readLine",
	"repro/internal/httpsim.readHeaders",
	"repro/internal/httpsim.fields.set",
	"repro/internal/httpsim.equalFoldASCII",
	"repro/internal/httpsim.internToken",
	"repro/internal/httpsim.atoiBytes",
	"repro/internal/acme.append*",
	"repro/internal/acme.decode*",
	"repro/internal/acme.jsonDecoder.*",
	"repro/internal/scanner.Scanner.probeHTTP",
	"repro/internal/scanner.Scanner.probeHTTPS",
	"repro/internal/scanner.Append*",
	"repro/internal/scanner.append*",
	"repro/internal/cert.Certificate.Append*",
	"repro/internal/resultset.build",
	"repro/internal/resultset.chainKeyIndex",
	"repro/internal/serve.append*",
}

// DefaultAnalyzers is the invariant set enforced on this repository — the
// configuration behind `govlint ./...`, the CI lint job, and the
// repo-lints-clean smoke test.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Walltime(WallClockPackages...),
		GlobalRand(),
		MapRange(DeterministicPackages...),
		Exhaustive(),
		GoroutineOwner(),
		HotAlloc(HotPathFuncs...),
		ChanLeak(LongRunningPackages...),
	}
}
