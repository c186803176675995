package scanner

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"sync"

	"repro/internal/cert"
	"repro/internal/hosting"
	"repro/internal/tlssim"
	"repro/internal/verify"
)

// journalEntry is the JSON-lines checkpoint form of one Result. Unlike the
// analyst-facing Record it is lossless: a resumed run rebuilds the exact
// Result (chain bytes included), so aggregates over journal-restored
// results match an uninterrupted scan bit for bit.
type journalEntry struct {
	Hostname         string        `json:"hostname"`
	IP               string        `json:"ip,omitempty"`
	DNSError         bool          `json:"dns_error,omitempty"`
	Available        bool          `json:"available,omitempty"`
	ServesHTTP       bool          `json:"serves_http,omitempty"`
	RedirectsToHTTPS bool          `json:"redirects_to_https,omitempty"`
	AttemptsHTTPS    bool          `json:"attempts_https,omitempty"`
	ServesHTTPS      bool          `json:"serves_https,omitempty"`
	HSTS             bool          `json:"hsts,omitempty"`
	TLSVersion       uint16        `json:"tls_version,omitempty"`
	Chain            string        `json:"chain,omitempty"` // base64 of cert.EncodeChain
	Verify           verify.Result `json:"verify"`
	Exception        int           `json:"exception,omitempty"`
	ExceptionDetail  string        `json:"exception_detail,omitempty"`
	Provider         string        `json:"provider,omitempty"`
	HostKind         int           `json:"host_kind,omitempty"`
	Attempts         int           `json:"attempts,omitempty"`
}

// toEntry flattens a Result for checkpointing.
func toEntry(r Result) journalEntry {
	e := journalEntry{
		Hostname:         r.Hostname,
		DNSError:         r.DNSError,
		Available:        r.Available,
		ServesHTTP:       r.ServesHTTP,
		RedirectsToHTTPS: r.RedirectsToHTTPS,
		AttemptsHTTPS:    r.AttemptsHTTPS,
		ServesHTTPS:      r.ServesHTTPS,
		HSTS:             r.HSTS,
		TLSVersion:       uint16(r.TLSVersion),
		Verify:           r.Verify,
		Exception:        int(r.Exception),
		ExceptionDetail:  r.ExceptionDetail,
		Provider:         r.Provider,
		HostKind:         int(r.HostKind),
		Attempts:         r.Attempts,
	}
	if r.IP.IsValid() {
		e.IP = r.IP.String()
	}
	if len(r.Chain) > 0 {
		e.Chain = base64.StdEncoding.EncodeToString(cert.EncodeChain(r.Chain))
	}
	return e
}

// toResult rebuilds the Result a journal entry checkpointed.
func (e journalEntry) toResult() (Result, error) {
	r := Result{
		Hostname:         e.Hostname,
		DNSError:         e.DNSError,
		Available:        e.Available,
		ServesHTTP:       e.ServesHTTP,
		RedirectsToHTTPS: e.RedirectsToHTTPS,
		AttemptsHTTPS:    e.AttemptsHTTPS,
		ServesHTTPS:      e.ServesHTTPS,
		HSTS:             e.HSTS,
		TLSVersion:       tlssim.Version(e.TLSVersion),
		Verify:           e.Verify,
		Exception:        Exception(e.Exception),
		ExceptionDetail:  e.ExceptionDetail,
		Provider:         e.Provider,
		HostKind:         hosting.Kind(e.HostKind),
		Attempts:         e.Attempts,
	}
	if e.IP != "" {
		ip, err := netip.ParseAddr(e.IP)
		if err != nil {
			return Result{}, fmt.Errorf("scanner: journal entry %q: bad ip: %w", e.Hostname, err)
		}
		r.IP = ip
	}
	if e.Chain != "" {
		raw, err := base64.StdEncoding.DecodeString(e.Chain)
		if err != nil {
			return Result{}, fmt.Errorf("scanner: journal entry %q: bad chain encoding: %w", e.Hostname, err)
		}
		chain, err := cert.ParseChain(raw)
		if err != nil {
			return Result{}, fmt.Errorf("scanner: journal entry %q: bad chain: %w", e.Hostname, err)
		}
		r.Chain = chain
	}
	return r, nil
}

// Journal is a JSON-lines checkpoint of completed scan results. ScanAll
// appends every completed host and skips hosts already present, so a study
// run killed mid-scan resumes from the last completed host instead of
// restarting 135k probes from zero. Appends are safe from concurrent scan
// goroutines.
//
// Writes are batched behind a buffered writer and flushed to the file every
// journalFlushEvery appends and on Close, so the per-host checkpoint cost
// is a buffer copy rather than a syscall. A crash can lose at most the one
// unflushed batch; the truncated-tail repair in OpenJournal makes any
// partially written line harmless, and the lost hosts are simply rescanned
// on resume.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	unflushed int
	done      map[string]Result
}

// journalFlushEvery bounds how many appends may sit in the write buffer
// before it is forced to disk.
const journalFlushEvery = 64

// OpenJournal opens (or creates) a checkpoint journal, loading every
// complete entry already present. Append terminates every entry with a
// newline, so a final line without one — the signature of a run killed
// mid-write, even when only the newline was lost — is torn: it is
// discarded and overwritten by the next append, as is everything from the
// first corrupt line on.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scanner: opening journal: %w", err)
	}
	done := make(map[string]Result)
	var goodBytes int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	sc.Split(scanTerminatedLines)
	for sc.Scan() {
		line := sc.Bytes()
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Hostname == "" {
			break // truncated or corrupt tail: resume from the last good entry
		}
		r, err := e.toResult()
		if err != nil {
			break
		}
		done[e.Hostname] = r
		goodBytes += int64(len(line))
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("scanner: reading journal: %w", err)
	}
	// Drop any corrupt tail so appends produce a well-formed file.
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("scanner: truncating journal: %w", err)
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("scanner: seeking journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriterSize(f, 1<<16), done: done}, nil
}

// scanTerminatedLines is a bufio.SplitFunc yielding each line with its
// newline, so the caller counts exactly the bytes it accepted. Trailing
// bytes with no newline yield no token: they are a torn tail.
func scanTerminatedLines(data []byte, _ bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	return 0, nil, nil
}

// Lookup returns the checkpointed result for a host, if present.
func (j *Journal) Lookup(host string) (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.done[host]
	return r, ok
}

// Len reports how many hosts the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Append checkpoints one completed result. The JSON encoding happens
// outside the lock, so concurrent scan workers serialize their entries in
// parallel and contend only for the buffer write.
func (j *Journal) Append(r Result) error {
	line, err := json.Marshal(toEntry(r))
	if err != nil {
		return fmt.Errorf("scanner: journaling %q: %w", r.Hostname, err)
	}
	line = append(line, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("scanner: journaling %q: %w", r.Hostname, err)
	}
	j.done[r.Hostname] = r
	j.unflushed++
	if j.unflushed >= journalFlushEvery {
		if err := j.w.Flush(); err != nil {
			return fmt.Errorf("scanner: flushing journal: %w", err)
		}
		j.unflushed = 0
	}
	return nil
}

// Flush forces any buffered appends to disk.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	j.unflushed = 0
	return j.w.Flush()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	flushErr := j.w.Flush()
	err := j.f.Close()
	j.f = nil
	if flushErr != nil {
		return flushErr
	}
	return err
}
