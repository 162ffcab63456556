package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/medusa-repro/medusa/internal/trace"
)

// GapPhase is the synthetic phase that absorbs instants of a breakdown
// extent covered by no interval. Keeping gaps explicit is what makes
// the accounting exact: the per-phase durations of one attribution
// always sum to the extent of the input intervals, to the nanosecond.
const GapPhase = "(gap)"

// Interval is one phase-tagged interval handed to AddExclusive.
type Interval struct {
	Phase      string
	Start, End time.Duration
}

// TimelineIntervals converts a cold-start stage timeline into
// intervals, shifting every stage by offset.
func TimelineIntervals(tl *trace.Timeline, offset time.Duration) []Interval {
	return AppendTimelineIntervals(nil, tl, offset)
}

// AppendTimelineIntervals is TimelineIntervals into a caller-provided
// buffer — the allocation-free form for hot loops that convert one
// timeline per cold start. AddExclusive does not retain its input, so
// callers may reuse the buffer across calls.
func AppendTimelineIntervals(dst []Interval, tl *trace.Timeline, offset time.Duration) []Interval {
	for _, st := range tl.Stages() {
		dst = append(dst, Interval{Phase: st.Name, Start: offset + st.Start, End: offset + st.End})
	}
	return dst
}

// PhaseBreakdown accumulates exclusive per-phase durations — the
// Figure-5 view of cold starts. "Exclusive" means every instant of an
// attributed extent is charged to exactly one phase, so the per-phase
// sums equal the end-to-end durations with zero drift even when the
// underlying stages overlap (async weight streaming, Medusa's restore
// next to the weight copy).
type PhaseBreakdown struct {
	order  []string
	totals map[string]time.Duration
	counts map[string]int
}

// NewPhaseBreakdown returns an empty breakdown.
func NewPhaseBreakdown() *PhaseBreakdown {
	return &PhaseBreakdown{totals: make(map[string]time.Duration), counts: make(map[string]int)}
}

// Add charges d to a phase directly.
func (b *PhaseBreakdown) Add(phase string, d time.Duration) {
	if _, ok := b.totals[phase]; !ok {
		b.order = append(b.order, phase)
	}
	b.totals[phase] += d
	b.counts[phase]++
}

// AddExclusive attributes the extent covered by the intervals to their
// phases exclusively: at every instant the earliest-started covering
// interval owns the time (ties broken by later end, then by phase
// name, so attribution is independent of input order); instants inside
// the extent covered by nothing are charged to GapPhase. The total
// charged equals exactly hull(intervals).End - hull(intervals).Start.
func (b *PhaseBreakdown) AddExclusive(intervals []Interval) {
	if len(intervals) == 0 {
		return
	}
	// Elementary slices between sorted unique boundaries.
	bounds := make([]time.Duration, 0, 2*len(intervals))
	for _, iv := range intervals {
		bounds = append(bounds, iv.Start, iv.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, t := range bounds[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	charged := make(map[string]bool, len(intervals))
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]
		owner := GapPhase
		var ownerIv *Interval
		for j := range intervals {
			iv := &intervals[j]
			if iv.Start > lo || hi > iv.End {
				continue
			}
			if ownerIv == nil ||
				iv.Start < ownerIv.Start ||
				(iv.Start == ownerIv.Start && (iv.End > ownerIv.End ||
					(iv.End == ownerIv.End && iv.Phase < ownerIv.Phase))) {
				owner = iv.Phase
				ownerIv = iv
			}
		}
		if _, ok := b.totals[owner]; !ok {
			b.order = append(b.order, owner)
		}
		b.totals[owner] += hi - lo
		if !charged[owner] {
			charged[owner] = true
			b.counts[owner]++
		}
	}
}

// Phases lists the phases in first-charged order.
func (b *PhaseBreakdown) Phases() []string { return append([]string(nil), b.order...) }

// Duration reports a phase's accumulated exclusive time.
func (b *PhaseBreakdown) Duration(phase string) time.Duration { return b.totals[phase] }

// Total sums all phases — by construction, exactly the summed extents
// handed to AddExclusive (plus direct Adds).
func (b *PhaseBreakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.totals {
		t += d
	}
	return t
}

// Table renders the Figure-5-style text breakdown: one row per phase
// in first-charged order with exclusive seconds and share, then an
// exact total row.
func (b *PhaseBreakdown) Table() string {
	total := b.Total()
	var w strings.Builder
	fmt.Fprintf(&w, "%-26s %12s %8s %7s\n", "phase", "exclusive", "share", "count")
	for _, p := range b.order {
		share := 0.0
		if total > 0 {
			share = float64(b.totals[p]) / float64(total) * 100
		}
		fmt.Fprintf(&w, "%-26s %11.3fs %7.1f%% %7d\n", p, b.totals[p].Seconds(), share, b.counts[p])
	}
	fmt.Fprintf(&w, "%-26s %11.3fs\n", "TOTAL", total.Seconds())
	return w.String()
}
