package serve

import (
	"net/http"
	"net/url"
	"testing"
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
