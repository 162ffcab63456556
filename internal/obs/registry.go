package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/medusa-repro/medusa/internal/metrics"
)

// Registry is a lightweight, name-keyed collection of counters, gauges
// and latency samples — the replacement for ad-hoc metrics plumbing.
// Instruments are created on first use, so readers and writers need no
// registration handshake. Safe for concurrent use: a mutex guards the
// name lookups and each gauge, and counters are atomic, so the
// simulator's single-goroutine loop increments them without taking a
// lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	samples  map[string]*metrics.Sample
	retain   bool
}

// RetainSamples makes every sample created after the call retain all
// observations instead of bounding them at the default reservoir — the
// registry-level switch behind the simulators' RetainPerRequest option.
// Call it before the first Sample lookup.
func (r *Registry) RetainSamples() {
	r.mu.Lock()
	r.retain = true
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		samples:  make(map[string]*metrics.Sample),
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (n may not be negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: counter decrement by %d", n))
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that also tracks its high-water mark
// (peak instances, live requests, …).
type Gauge struct {
	mu   sync.Mutex
	v    float64
	max  float64
	seen bool
}

// Update sets the gauge's current value and folds it into the maximum.
func (g *Gauge) Update(v float64) {
	g.mu.Lock()
	g.v = v
	if !g.seen || v > g.max {
		g.max = v
		g.seen = true
	}
	g.mu.Unlock()
}

// Value reads the gauge's current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max reads the highest value ever set (0 if never set).
func (g *Gauge) Max() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Sample returns (creating on first use) the named latency sample.
func (r *Registry) Sample(name string) *metrics.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.samples[name]
	if !ok {
		s = &metrics.Sample{}
		if r.retain {
			s.Retain()
		}
		r.samples[name] = s
	}
	return s
}

// CounterNames lists registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.counters)
}

// GaugeNames lists registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.gauges)
}

// SampleNames lists registered sample names, sorted.
func (r *Registry) SampleNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.samples)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render dumps the registry as an aligned text block: counters, then
// gauges (value and peak), then samples (count/mean/p50/p99/max via
// metrics.Summary). Deterministic — names sort lexicographically.
func (r *Registry) Render() string {
	var b strings.Builder
	for _, name := range r.CounterNames() {
		fmt.Fprintf(&b, "counter %-24s %d\n", name, r.Counter(name).Value())
	}
	for _, name := range r.GaugeNames() {
		g := r.Gauge(name)
		fmt.Fprintf(&b, "gauge   %-24s %g (peak %g)\n", name, g.Value(), g.Max())
	}
	for _, name := range r.SampleNames() {
		s := r.Sample(name)
		sum, ok := s.Summary()
		if !ok {
			fmt.Fprintf(&b, "sample  %-24s (empty)\n", name)
			continue
		}
		fmt.Fprintf(&b, "sample  %-24s n=%d mean=%v p50=%v p99=%v max=%v\n",
			name, sum.Count, sum.Mean, sum.P50, sum.P99, sum.Max)
	}
	return b.String()
}
