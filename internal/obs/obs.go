// Package obs provides phase-attributed tracing and a lightweight
// metrics registry for the cold-start and serving stack. Every
// timestamp is virtual — an offset on the simulation's vclock — and
// wall-clock time is never recorded: a trace taken at a fixed seed is
// bit-identical across runs, machines and -race modes, which is what
// lets exporter output be golden-tested.
//
// The span model is hierarchical: a Span belongs to a track (one track
// per simulated GPU/instance, plus auxiliary tracks like a node's
// artifact cache or a request queue), carries a phase tag (the
// engine's Stage* names, "queued", "prefill", "decode", …) and ordered
// key/value attributes, and may nest children. Exporters — the Chrome trace_event writer in
// chrome.go and the Figure-5-style phase table in phases.go — render
// the same spans for Perfetto and for terminals respectively.
//
// A nil *Tracer is a valid no-op: instrumented code records spans
// unconditionally and pays nothing when tracing is off.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Attributes are ordered
// (slice, not map) so exporter output is deterministic.
type Attr struct {
	Key   string
	Value string
}

// SpanData is the recorded form of one span.
type SpanData struct {
	// ID is the span's index in emission order (stable within a run).
	ID int
	// Parent is the parent span's ID, or -1 for a root span.
	Parent int
	// Track names the horizontal lane the span renders on — one per
	// simulated GPU/instance by convention.
	Track string
	// Name labels the span.
	Name string
	// Phase is the phase tag used for breakdown attribution; empty
	// means the span does not participate in phase tables.
	Phase string
	// Start and End are virtual-clock instants.
	Start, End time.Duration
	// Attrs are the ordered key/value annotations.
	Attrs []Attr
}

// Duration is the span length.
func (s SpanData) Duration() time.Duration { return s.End - s.Start }

// Tracer collects spans. The zero value is not usable; call NewTracer.
// A nil *Tracer is a no-op sink. Safe for concurrent use, though span
// IDs are only deterministic when emission order is (the simulators
// emit from a single goroutine).
type Tracer struct {
	mu    sync.Mutex
	spans []SpanData
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is a handle to an in-flight (or finished) span. A nil *Span is
// a no-op, so call sites need no tracer-enabled checks.
type Span struct {
	tr *Tracer
	id int
}

// StartSpan opens a root span on a track at the given virtual instant.
// Returns nil (a no-op handle) on a nil tracer.
func (t *Tracer) StartSpan(track, name string, start time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(-1, track, name, start)
}

func (t *Tracer) startLocked(parent int, track, name string, start time.Duration) *Span {
	id := len(t.spans)
	t.spans = append(t.spans, SpanData{
		ID: id, Parent: parent, Track: track, Name: name, Start: start, End: start,
	})
	return &Span{tr: t, id: id}
}

// RecordSpan records an already-measured interval in one call.
func (t *Tracer) RecordSpan(track, name, phase string, start, end time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	sp := t.StartSpan(track, name, start)
	sp.Tag(phase)
	for _, a := range attrs {
		sp.Attr(a.Key, a.Value)
	}
	sp.End(end)
}

// Child opens a sub-span on the same track.
func (s *Span) Child(name string, start time.Duration) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.startLocked(s.id, s.tr.spans[s.id].Track, name, start)
}

// Tag sets the span's phase tag and returns the span for chaining.
func (s *Span) Tag(phase string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.tr.spans[s.id].Phase = phase
	s.tr.mu.Unlock()
	return s
}

// Attr appends a key/value attribute and returns the span.
func (s *Span) Attr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.tr.spans[s.id].Attrs = append(s.tr.spans[s.id].Attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
	return s
}

// AttrInt appends an integer attribute.
func (s *Span) AttrInt(key string, v int64) *Span {
	return s.Attr(key, fmt.Sprintf("%d", v))
}

// AttrBytes appends a byte-count attribute.
func (s *Span) AttrBytes(key string, v uint64) *Span {
	return s.Attr(key, fmt.Sprintf("%d", v))
}

// AttrDuration appends a duration attribute.
func (s *Span) AttrDuration(key string, d time.Duration) *Span {
	return s.Attr(key, d.String())
}

// End closes the span at the given virtual instant. Ending before the
// start panics — virtual intervals, like real ones, cannot be negative.
func (s *Span) End(end time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	sp := &s.tr.spans[s.id]
	if end < sp.Start {
		panic(fmt.Sprintf("obs: span %q ends (%v) before it starts (%v)", sp.Name, end, sp.Start))
	}
	sp.End = end
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of all recorded spans sorted by (Start, Track,
// Name, End, Phase, Attrs, ID) — the deterministic order the exporters
// render in. Every tie-break before ID is a content field, so exporter
// output is a pure function of the span *set*: concurrent emitters
// (the offline phases PrefetchArtifacts runs in parallel) may
// interleave insertion differently between runs without changing what
// the exporters write. ID keeps even fully-identical duplicate spans
// deterministic within a run.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		if c := compareAttrs(out[i].Attrs, out[j].Attrs); c != 0 {
			return c < 0
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// compareAttrs orders attribute lists lexicographically by (key, value)
// pairs, shorter prefix first.
func compareAttrs(a, b []Attr) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Key != b[i].Key {
			if a[i].Key < b[i].Key {
				return -1
			}
			return 1
		}
		if a[i].Value != b[i].Value {
			if a[i].Value < b[i].Value {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Tracks returns the distinct track names in sorted order.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seen := make(map[string]bool, 8)
	var tracks []string
	for i := range t.spans {
		if !seen[t.spans[i].Track] {
			seen[t.spans[i].Track] = true
			tracks = append(tracks, t.spans[i].Track)
		}
	}
	t.mu.Unlock()
	sort.Strings(tracks)
	return tracks
}
