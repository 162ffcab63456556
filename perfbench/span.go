package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"github.com/medusa-repro/medusa/internal/workload"
)

// span is one timed call from the benchmark into a module's public
// function. Times are host time since the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Allocs counts heap allocations between start and end, children
	// included.
	Allocs uint64 `json:"allocs"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Calls are made from
// one goroutine, so the open-span stack gives each span its parent.
// A nil *tracer records nothing, which is how untraced passes run.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Allocs: mallocs(), Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perfbench: span ended out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = time.Since(t.origin)
	s.Allocs = mallocs() - s.Allocs
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (the union of the child intervals, clipped to
// the parent, so overlapping children are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// total sums the durations and allocations of the spans named name.
func (t *tracer) total(name string) (d time.Duration, n int, allocs uint64) {
	for _, s := range t.spans {
		if s.Name == name {
			d += s.duration()
			n++
			allocs += s.Allocs
		}
	}
	return d, n, allocs
}

// writeJSON writes every span with its self time.
func (t *tracer) writeJSON(w io.Writer) error {
	type row struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}

// arrivalStats aggregates the calls to Next on a workload's request
// sources: a count plus total host time, not one span per call.
type arrivalStats struct {
	timed   bool
	n       int
	elapsed time.Duration
	last    time.Duration // arrival instant of the latest request (virtual)
}

// countingSource wraps a workload.Source and counts what it yields.
type countingSource struct {
	src   workload.Source
	stats *arrivalStats
}

func (c countingSource) Next() (workload.Request, bool) {
	var start time.Time
	if c.stats.timed {
		start = time.Now()
	}
	r, ok := c.src.Next()
	if c.stats.timed {
		c.stats.elapsed += time.Since(start)
	}
	if ok {
		c.stats.n++
		c.stats.last = max(c.stats.last, r.Arrival)
	}
	return r, ok
}

func (c countingSource) Err() error { return c.src.Err() }
