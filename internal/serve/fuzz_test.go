package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/resultset"
	"repro/internal/scanner"
)

// FuzzQueryParam: queryParam never panics on a raw query, and it reads
// the value r.URL.Query().Get would — the first value url.ParseQuery
// collects for the key, or "" when there is none.
func FuzzQueryParam(f *testing.F) {
	for _, seed := range [][2]string{
		{"dataset=worldwide&limit=10", "dataset"},
		{"name=a%2Eb&name=c", "name"},
		{"q=a+b%20c", "q"},
		{"k&k=1", "k"},
		{"k=%zz&k=1", "k"},
		{"k%6B=1&kk=2", "kk"},
		{"=v&a=", "a"},
		{"x;y=1&y=2", "y"},
		{"a%=1&a=2", "a"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		got := queryParam(&http.Request{URL: &url.URL{RawQuery: raw}}, key)
		want := ""
		if vs := parseQuery(raw)[key]; len(vs) > 0 {
			want = vs[0]
		}
		if got != want {
			t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery has %q", raw, key, got, want)
		}
	})
}

// parseQuery is url.ParseQuery without its error: like URL.Query, it
// keeps every well-formed pair and drops the rest.
func parseQuery(raw string) url.Values {
	v, _ := url.ParseQuery(raw)
	return v
}

// FuzzExportWindow: for any raw offset/limit, an export either answers
// 400 or returns exactly rows[offset:min(n, offset+limit)] — every row
// from offset when limit is 0 or absent — and never panics.
func FuzzExportWindow(f *testing.F) {
	const n = 7
	rows := make([]scanner.Result, n)
	for i := range rows {
		rows[i] = scanner.Result{Hostname: fmt.Sprintf("h%d.gov.xx", i), Available: true}
	}
	reg := dataset.NewRegistry(func(context.Context, []string) *resultset.Set {
		return resultset.New(rows, resultset.Options{})
	})
	reg.Register(dataset.Source{Name: "worldwide", Hosts: func() []string { return nil }})
	h := New(reg, Config{}).Handler()
	set, err := reg.Get(context.Background(), "worldwide")
	if err != nil {
		f.Fatal(err)
	}

	for _, seed := range [][2]string{
		{"2", "3"},
		{"1", "9223372036854775807"},
		{"9223372036854775807", "9223372036854775807"},
		{"", ""},
		{"3", "0"},
		{"100", "5"},
		{"-1", "3"},
		{"1", "x"},
		{"0", "18446744073709551616"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, offset, limit string) {
		rec := httptest.NewRecorder()
		target := "/v1/export?offset=" + url.QueryEscape(offset) + "&limit=" + url.QueryEscape(limit)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))

		off, okOff := windowParam(offset)
		lim, okLim := windowParam(limit)
		if !okOff || !okLim {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", target, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", target, rec.Code)
		}
		// The window in uint64, where offset+limit cannot overflow.
		from, to := min(uint64(off), n), uint64(n)
		if lim > 0 {
			to = min(to, uint64(off)+uint64(lim))
		}
		var want []byte
		for i := from; i < to; i++ {
			want = set.At(int(i)).AppendRecord(want)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: body %q, want rows [%d, %d)", target, rec.Body.Bytes(), from, to)
		}
	})
}

// windowParam reads an offset or limit as the export does: absent is 0,
// anything but a non-negative int is malformed.
func windowParam(v string) (int, bool) {
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	return n, err == nil && n >= 0
}
