package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// tree is a synthetic span tree (times in ns):
//
//	1 root    [0,100]   children 2 [10,40], 3 [30,60] (overlapping), 5 [90,120] (overruns)
//	2         [10,40]   child 4 [15,20]
//	6 second  [100,150] top-level, no children
var tree = []span{
	{ID: 1, Name: "root", Start: 0, End: 100},
	{ID: 2, Parent: 1, Name: "a.x", Start: 10, End: 40},
	{ID: 4, Parent: 2, Name: "b.y", Start: 15, End: 20},
	{ID: 3, Parent: 1, Name: "a:z", Start: 30, End: 60},
	{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
	{ID: 6, Name: "second", Start: 100, End: 150},
}

func TestSelfTimes(t *testing.T) {
	// root: 100 minus the union [10,60] of 2 and 3 (counted once) minus
	// 5 clipped to [90,100]; 2: 30 minus 4's 5.
	want := map[int64]int64{1: 40, 2: 25, 4: 5, 3: 30, 5: 30, 6: 50}
	got := selfTimes(tree)
	for i, s := range tree {
		if got[i] != want[s.ID] {
			t.Errorf("span %d self time %d, want %d", s.ID, got[i], want[s.ID])
		}
	}
	if n := topLevelNanos(tree); n != 150 {
		t.Errorf("top-level sum %d, want 150", n)
	}
	if l := tree[3].layer(); l != "a" {
		t.Errorf("layer of %q = %q, want a", tree[3].Name, l)
	}
	// Layer a is spans 2 (a.x) and 3 (a:z): 25 + 30 ns of self time.
	want2 := []metric{
		{"self_s.a", 55e-9, "s"}, {"self_s.b", 5e-9, "s"}, {"self_s.c", 30e-9, "s"},
		{"self_s.root", 40e-9, "s"}, {"self_s.second", 50e-9, "s"},
	}
	if got := selfByLayer(tree); !reflect.DeepEqual(got, want2) {
		t.Errorf("selfByLayer = %v, want %v", got, want2)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("setup", 0)
	inner := tr.begin("world.build", outer.id())
	inner.end()
	inner.end() // a second end records nothing
	outer.end()
	req := tr.beginRequest("net.client:host", outer.id(), 1)
	req.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["world.build"].Parent != byName["setup"].ID || byName["setup"].Parent != 0 {
		t.Fatalf("parent links wrong: %+v", spans)
	}
	if c := byName["net.client:host"]; c.Req != c.ID {
		t.Fatalf("request span's id %d is not its own request id %d", c.ID, c.Req)
	}

	var nilTracer *tracer
	sp := nilTracer.begin("x", 0)
	sp.end()
	if sp.id() != 0 {
		t.Fatal("untraced span has an id")
	}
}

func TestChromeTraceSamplesRequests(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.measure", Start: 0, End: 1000},
		{ID: 64, Parent: 1, Req: 64, Track: 2, Name: "net.client:host", Start: 10, End: 90},
		{ID: 66, Parent: 64, Req: 64, Track: -1, Name: "serve.handler", Start: 20, End: 60},
		{ID: 65, Parent: 1, Req: 65, Track: 1, Name: "net.client:agg", Start: 100, End: 190},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "test", spans, map[string]any{"k": 1.5}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent   `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]traceEvent{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = e
	}
	if _, ok := names["net.client:agg"]; ok {
		t.Error("request 65 is outside the 1-in-64 sample but was written")
	}
	h, ok := names["serve.handler"]
	if !ok || h.Tid != 2 || h.Ts != 0.02 || h.Dur != 0.04 || h.Cat != "serve" {
		t.Errorf("handler event %+v, want tid 2 (its client's lane), ts 0.02µs, dur 0.04µs, cat serve", h)
	}
	if _, ok := names["process_name"]; !ok || doc.OtherData["k"] != 1.5 {
		t.Errorf("metadata missing: %+v", doc)
	}
}
