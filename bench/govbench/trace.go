package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of one traced run in memory. Spans wrap only the
// benchmark's own calls into the layers' public functions; the program
// under test is not instrumented. A nil *tracer is the untraced run:
// every method is a no-op, so both runs execute the same workload code.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// span is one finished interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID, Parent int64 // Parent 0 marks a top-level span
	// Req links a serve request's client span and handler span (the
	// client span's ID, carried in the X-Bench-Req header); 0 elsewhere.
	Req int64
	// Track is the display lane: 0 for the main goroutine, 1+i for serve
	// client i, -1 for "the parent's lane".
	Track      int
	Name       string
	Start, End int64
}

// Dur is the span's duration in nanoseconds.
func (s span) Dur() int64 { return s.End - s.Start }

func (s span) seconds() float64 { return float64(s.Dur()) / 1e9 }

// spanDurations lists the durations, in seconds, of the spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// layer is the span name up to its first '.' or ':' — the package the
// wrapped call belongs to ("serve.handler" → "serve").
func (s span) layer() string {
	if i := strings.IndexAny(s.Name, ".:"); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func newTracer() *tracer { return &tracer{epoch: clock.Now()} }

// now reads the tracer-relative time.
func (t *tracer) now() int64 { return clock.Now().Sub(t.epoch).Nanoseconds() }

// active is a begun span; end records it.
type active struct {
	t     *tracer
	s     span
	ended bool
}

// begin opens a span on the main lane.
func (t *tracer) begin(name string, parent int64) *active {
	return t.beginOn(name, parent, 0, 0)
}

// beginOn opens a span with an explicit request id and lane.
func (t *tracer) beginOn(name string, parent, req int64, track int) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Req: req, Track: track,
		Name: name, Start: t.now(),
	}}
}

// beginRequest opens a serve client span whose request id is its own id;
// the handler span it causes names it as parent and request.
func (t *tracer) beginRequest(name string, parent int64, track int) *active {
	a := t.beginOn(name, parent, 0, track)
	if a != nil {
		a.s.Req = a.s.ID
	}
	return a
}

// id is the span's identifier, the parent argument for its children (0
// when untraced).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// seconds is the duration of an ended span (0 when untraced).
func (a *active) seconds() float64 {
	if a == nil {
		return 0
	}
	return a.s.seconds()
}

// end closes the span and records it. Ending twice records it once.
func (a *active) end() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.s.End = a.t.now()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns, aligned with spans, each span's duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent serve clients under one phase span) are counted once.
func selfTimes(spans []span) []int64 {
	pos := make(map[int64]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := pos[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// selfByLayer sums self time by layer, one self_s.<layer> metric each in
// layer order: where the traced run's time went. Over sequential spans
// the sums add up to the top-level total; concurrent spans (the serve
// clients) each count their own time.
func selfByLayer(spans []span) []metric {
	self := selfTimes(spans)
	sums := map[string]int64{}
	for i, s := range spans {
		sums[s.layer()] += self[i]
	}
	layers := make([]string, 0, len(sums))
	for l := range sums {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	out := make([]metric, len(layers))
	for i, l := range layers {
		out[i] = metric{"self_s." + l, float64(sums[l]) / 1e9, "s"}
	}
	return out
}

// topLevelNanos sums the durations of the top-level spans. In a traced
// run they tile the wall time: setup, measured phase, checks and probes
// run one after another, so the sum should match the wall clock.
func topLevelNanos(spans []span) int64 {
	var n int64
	for _, s := range spans {
		if s.Parent == 0 {
			n += s.Dur()
		}
	}
	return n
}

// traceEvent is one Chrome trace-event record ("X" = complete event, "M"
// = metadata), the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// sampleEvery keeps one serve request in this many in the trace file;
// per-layer numbers are computed from every span regardless.
const sampleEvery = 64

// writeChromeTrace writes spans as Chrome trace-event JSON. Request spans
// are thinned to a deterministic 1-in-sampleEvery sample of request ids;
// spans on the parent's lane are drawn on it. meta lands in otherData.
func writeChromeTrace(w io.Writer, title string, spans []span, meta map[string]any) error {
	track := make(map[int64]int, len(spans))
	for _, s := range spans {
		track[s.ID] = s.Track
	}
	events := []traceEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": title}}}
	for _, s := range spans {
		if s.Req != 0 && s.Req%sampleEvery != 0 {
			continue
		}
		tid := s.Track
		if tid < 0 {
			tid = track[s.Parent]
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ns",
		"traceEvents":     events,
		"otherData":       meta,
	})
}
