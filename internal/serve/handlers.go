package serve

// handlers.go — the endpoint handlers and their append-style body
// builders. Builders derive every byte from the pinned Set's ordered
// accessors (first-seen key order, sorted countries, ascending buckets),
// which is what makes responses byte-identical with the cache on or off
// and at any concurrency. The append* builders are part of govlint's
// declared hot set (hotalloc): no fmt, no unsized maps, no boxing.

import (
	"net/http"
	"strconv"

	"repro/internal/resultset"
	"repro/internal/scanner"
)

// --- shared JSON append helpers ---

// appendKey appends `"name":` (with a leading comma unless first).
func appendKey(dst []byte, name string, first bool) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendHead opens a response object with its dataset/generation stamp:
// `{"dataset":<name>,"generation":<gen>`.
func appendHead(dst []byte, name string, gen int) []byte {
	dst = append(dst, `{"dataset":`...)
	dst = scanner.AppendJSONString(dst, name)
	dst = append(dst, `,"generation":`...)
	return strconv.AppendInt(dst, int64(gen), 10)
}

// appendIntField appends `,"name":<v>`.
func appendIntField(dst []byte, name string, v int) []byte {
	dst = appendKey(dst, name, false)
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendStrField appends `,"name":"<escaped v>"`.
func appendStrField(dst []byte, name, v string) []byte {
	dst = appendKey(dst, name, false)
	return scanner.AppendJSONString(dst, v)
}

// appendHostnames appends `,"hostnames":[...]` for a page of result
// indices.
func appendHostnames(dst []byte, set *resultset.Set, page []int) []byte {
	dst = append(dst, `,"hostnames":[`...)
	for i, idx := range page {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = scanner.AppendJSONString(dst, set.At(idx).Hostname)
	}
	return append(dst, ']')
}

// appendCells appends `,"<name>":[{"label":..,"total":..,"valid":..}]`.
func appendCells(dst []byte, name string, cells []resultset.Cell) []byte {
	dst = appendKey(dst, name, false)
	dst = append(dst, '[')
	for i := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"label":`...)
		dst = scanner.AppendJSONString(dst, cells[i].Label)
		dst = appendIntField(dst, "total", cells[i].Total)
		dst = appendIntField(dst, "valid", cells[i].Valid)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// --- endpoint handlers ---

// handleTable2 serves GET /v1/table2: the paper's Table 2 — the
// availability/validity tallies plus per-category and per-exception
// counts, in the build's first-seen order.
func (s *Server) handleTable2(w http.ResponseWriter, r *http.Request) {
	s.query(w, r, "table2", "", func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		c := set.Counts()
		dst = appendHead(dst, ds, gen)
		dst = append(dst, `,"counts":{"total":`...)
		dst = strconv.AppendInt(dst, int64(c.Total), 10)
		dst = appendIntField(dst, "unavailable", c.Unavailable)
		dst = appendIntField(dst, "http_only", c.HTTPOnly)
		dst = appendIntField(dst, "https", c.HTTPS)
		dst = appendIntField(dst, "valid", c.Valid)
		dst = appendIntField(dst, "invalid", c.Invalid)
		dst = appendIntField(dst, "exceptions", c.Exceptions)
		dst = appendIntField(dst, "both_schemes", c.BothSchemes)
		dst = appendIntField(dst, "hsts", c.HSTS)
		dst = append(dst, `},"categories":[`...)
		for i, cat := range set.Categories() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"label":`...)
			dst = scanner.AppendJSONString(dst, cat.String())
			dst = appendIntField(dst, "count", set.CategoryCount(cat))
			dst = append(dst, '}')
		}
		dst = append(dst, `],"exceptions":[`...)
		for i, exc := range set.Exceptions() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"label":`...)
			dst = scanner.AppendJSONString(dst, exc.String())
			dst = appendIntField(dst, "count", len(set.ByException(exc)))
			dst = append(dst, '}')
		}
		dst = append(dst, ']', '}', '\n')
		return dst, ""
	})
}

// handleCountries serves GET /v1/countries: every country's
// availability/https/validity tally, sorted by country code.
func (s *Server) handleCountries(w http.ResponseWriter, r *http.Request) {
	s.query(w, r, "countries", "", func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		dst = appendHead(dst, ds, gen)
		dst = append(dst, `,"countries":[`...)
		for i, agg := range set.CountryAggs() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"country":`...)
			dst = scanner.AppendJSONString(dst, agg.Country)
			dst = appendIntField(dst, "hosts", agg.Hosts)
			dst = appendIntField(dst, "available", agg.Available)
			dst = appendIntField(dst, "https", agg.HTTPS)
			dst = appendIntField(dst, "valid", agg.Valid)
			dst = append(dst, '}')
		}
		dst = append(dst, ']', '}', '\n')
		return dst, ""
	})
}

// handleCountry serves GET /v1/country?cc=XX: one country's tally plus a
// paged hostname listing.
func (s *Server) handleCountry(w http.ResponseWriter, r *http.Request) {
	cc := queryParam(r, "cc")
	if cc == "" {
		s.errorJSON(w, http.StatusBadRequest, "missing cc parameter")
		return
	}
	offset, limit, ok := s.page(w, r)
	if !ok {
		return
	}
	params := "cc=" + cc + "&o=" + strconv.Itoa(offset) + "&l=" + strconv.Itoa(limit)
	s.query(w, r, "country", params, func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		bucket := set.ByCountry(cc)
		if len(bucket) == 0 {
			return nil, "unknown country: " + cc
		}
		var agg resultset.CountryAgg
		for _, a := range set.CountryAggs() {
			if a.Country == cc {
				agg = a
				break
			}
		}
		dst = appendHead(dst, ds, gen)
		dst = appendStrField(dst, "country", cc)
		dst = appendIntField(dst, "hosts", agg.Hosts)
		dst = appendIntField(dst, "available", agg.Available)
		dst = appendIntField(dst, "https", agg.HTTPS)
		dst = appendIntField(dst, "valid", agg.Valid)
		dst = appendIntField(dst, "offset", offset)
		dst = appendHostnames(dst, set, clampPage(bucket, offset, limit))
		dst = append(dst, '}', '\n')
		return dst, ""
	})
}

// handleIssuers serves GET /v1/issuers: per-issuing-CA validity cells in
// first-seen order, plus the analyzed denominator.
func (s *Server) handleIssuers(w http.ResponseWriter, r *http.Request) {
	s.query(w, r, "issuers", "", func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		dst = appendHead(dst, ds, gen)
		dst = appendIntField(dst, "analyzed", set.IssuerAnalyzed())
		dst = appendCells(dst, "issuers", set.IssuerCells())
		dst = append(dst, '}', '\n')
		return dst, ""
	})
}

// handleIssuer serves GET /v1/issuer?cn=...: one CA's cell plus a paged
// hostname listing of the hosts it issued for.
func (s *Server) handleIssuer(w http.ResponseWriter, r *http.Request) {
	cn := queryParam(r, "cn")
	if cn == "" {
		s.errorJSON(w, http.StatusBadRequest, "missing cn parameter")
		return
	}
	offset, limit, ok := s.page(w, r)
	if !ok {
		return
	}
	params := "cn=" + cn + "&o=" + strconv.Itoa(offset) + "&l=" + strconv.Itoa(limit)
	s.query(w, r, "issuer", params, func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		bucket := set.ByIssuer(cn)
		if len(bucket) == 0 {
			return nil, "unknown issuer: " + cn
		}
		valid := 0
		for _, idx := range bucket {
			if set.At(idx).Verify.Valid() {
				valid++
			}
		}
		dst = appendHead(dst, ds, gen)
		dst = appendStrField(dst, "issuer", cn)
		dst = appendIntField(dst, "hosts", len(bucket))
		dst = appendIntField(dst, "valid", valid)
		dst = appendIntField(dst, "offset", offset)
		dst = appendHostnames(dst, set, clampPage(bucket, offset, limit))
		dst = append(dst, '}', '\n')
		return dst, ""
	})
}

// handleCategory serves GET /v1/category?cat=...: one Table-2 category's
// count plus a paged hostname listing. Categories are matched by their
// exact label.
func (s *Server) handleCategory(w http.ResponseWriter, r *http.Request) {
	label := queryParam(r, "cat")
	if label == "" {
		s.errorJSON(w, http.StatusBadRequest, "missing cat parameter")
		return
	}
	offset, limit, ok := s.page(w, r)
	if !ok {
		return
	}
	params := "cat=" + label + "&o=" + strconv.Itoa(offset) + "&l=" + strconv.Itoa(limit)
	s.query(w, r, "category", params, func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		var bucket []int
		found := false
		for _, cat := range set.Categories() {
			if cat.String() == label {
				bucket, found = set.ByCategory(cat), true
				break
			}
		}
		if !found {
			return nil, "unknown category: " + label
		}
		dst = appendHead(dst, ds, gen)
		dst = appendStrField(dst, "category", label)
		dst = appendIntField(dst, "count", len(bucket))
		dst = appendIntField(dst, "offset", offset)
		dst = appendHostnames(dst, set, clampPage(bucket, offset, limit))
		dst = append(dst, '}', '\n')
		return dst, ""
	})
}

// handleHost serves GET /v1/host?name=...: the single host's full scan
// record via the zero-copy serializer.
func (s *Server) handleHost(w http.ResponseWriter, r *http.Request) {
	name := queryParam(r, "name")
	if name == "" {
		s.errorJSON(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	s.query(w, r, "host", "name="+name, func(set *resultset.Set, ds string, gen int, dst []byte) ([]byte, string) {
		res, ok := set.Lookup(name)
		if !ok {
			return nil, "unknown host: " + name
		}
		dst = appendHead(dst, ds, gen)
		dst = append(dst, `,"record":`...)
		dst = res.AppendRecord(dst)
		// AppendRecord closes with the JSONL newline; fold it into the
		// enclosing object.
		if dst[len(dst)-1] == '\n' {
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, '}', '\n')
		return dst, ""
	})
}

// handleExport serves GET /v1/export: a paginated streaming JSONL export
// of the pinned generation through the zero-copy AppendRecord path and a
// pooled 64 KiB staging buffer. Uncached by design — the cost is the
// stream itself, not the aggregation.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if !tryAcquire(s.exportSem) {
		s.reject(w, &s.rejectedExport)
		return
	}
	defer func() { <-s.exportSem }()

	offset, limit, okPage := s.pageRaw(w, r)
	if !okPage {
		return
	}
	name := queryParam(r, "dataset")
	if name == "" {
		name = defaultDataset
	}
	pin, err := s.reg.Pin(r.Context(), name)
	if err != nil {
		s.errorJSON(w, http.StatusNotFound, err.Error())
		return
	}
	defer pin.Release()
	set := pin.Set()

	n := set.Len()
	if offset > n {
		offset = n
	}
	end := n
	if limit > 0 && limit < n-offset {
		end = offset + limit
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Dataset", name)
	h.Set("X-Generation", strconv.Itoa(pin.Generation()))
	h.Set("X-Total-Count", strconv.Itoa(n))

	buf := s.exportPool.Get().(*[]byte)
	b := (*buf)[:0]
	for i := offset; i < end; i++ {
		b = set.At(i).AppendRecord(b)
		if len(b) >= exportFlushSize {
			if _, err := w.Write(b); err != nil {
				*buf = b[:0]
				s.exportPool.Put(buf)
				return
			}
			b = b[:0]
		}
	}
	if len(b) > 0 {
		w.Write(b)
	}
	*buf = b[:0]
	s.exportPool.Put(buf)
}

// pageRaw parses offset/limit without applying the page cap — the export
// endpoint's window is bounded by the corpus, not the listing page size
// (limit 0 means "to the end").
func (s *Server) pageRaw(w http.ResponseWriter, r *http.Request) (offset, limit int, ok bool) {
	if v := queryParam(r, "offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.errorJSON(w, http.StatusBadRequest, "invalid offset")
			return 0, 0, false
		}
		offset = n
	}
	if v := queryParam(r, "limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.errorJSON(w, http.StatusBadRequest, "invalid limit")
			return 0, 0, false
		}
		limit = n
	}
	return offset, limit, true
}

// handleDatasets serves GET /v1/datasets: registry introspection — every
// registered dataset's current generation, cache state, dirty-host
// backlog, and pinned generations. Uncached (pin state is transient).
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if !tryAcquire(s.querySem) {
		s.reject(w, &s.rejectedQuery)
		return
	}
	defer func() { <-s.querySem }()

	body := []byte(`{"datasets":[`)
	for i, info := range s.reg.Generations() {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"name":`...)
		body = scanner.AppendJSONString(body, info.Name)
		body = appendIntField(body, "generation", info.Current)
		body = append(body, `,"cached":`...)
		body = strconv.AppendBool(body, info.Cached)
		body = appendIntField(body, "dirty", info.Dirty)
		body = append(body, `,"pinned":[`...)
		for j, p := range info.Pinned {
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"generation":`...)
			body = strconv.AppendInt(body, int64(p.Generation), 10)
			body = appendIntField(body, "readers", p.Readers)
			body = append(body, '}')
		}
		body = append(body, ']', '}')
	}
	body = append(body, ']', '}', '\n')
	writeBody(w, body, "")
}

// handleStats serves GET /v1/stats: response-cache counters and
// backpressure rejections. Uncached and generation-free.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.CacheStats()
	body := []byte(`{"cache":{"hits":`)
	body = strconv.AppendInt(body, st.Hits, 10)
	body = append(body, `,"misses":`...)
	body = strconv.AppendInt(body, st.Misses, 10)
	body = append(body, `,"fills":`...)
	body = strconv.AppendInt(body, st.Fills, 10)
	body = append(body, `,"waits":`...)
	body = strconv.AppendInt(body, st.Waits, 10)
	body = append(body, `,"evictions":`...)
	body = strconv.AppendInt(body, st.Evictions, 10)
	body = append(body, `,"purged":`...)
	body = strconv.AppendInt(body, st.Purged, 10)
	body = appendIntField(body, "entries", st.Entries)
	body = appendIntField(body, "bytes", st.Bytes)
	body = append(body, `},"rejected":{"query":`...)
	body = strconv.AppendInt(body, s.rejectedQuery.Load(), 10)
	body = append(body, `,"export":`...)
	body = strconv.AppendInt(body, s.rejectedExport.Load(), 10)
	body = append(body, '}', '}', '\n')
	writeBody(w, body, "")
}
