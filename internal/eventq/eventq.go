// Package eventq provides the containers on the simulator's hottest
// path: a monomorphized 4-ary min-heap for timed events, FIFO lanes
// beside it for event streams that arrive already in time order, and a
// ring-buffer deque for FIFO queues.
//
// The event loop (internal/serverless) does not use container/heap,
// whose interface-based API boxes every Push/Pop operand into an `any`
// — one allocation and one dynamic dispatch per event, twice per event
// lifetime. Queue is generic over the payload, so events move through
// it by value with no boxing, and the 4-ary layout does the same work
// with roughly half the levels (and half the compare-and-swap
// cascades) of a binary heap on the mostly-near-sorted pushes a
// simulation produces. A stream whose instants never decrease (sourced
// arrivals, fixed-timeout timers) skips the heap altogether: a lane
// keeps it in push order, which is already its pop order.
//
// Determinism contract: Pop returns events in strictly increasing
// (time, sequence) order, where the sequence number is assigned by
// Push and PushLane in call order from one shared counter. This is
// exactly the (t, seq) tie-break the event loop used with
// container/heap, so a fixed-seed simulation pops the same events in
// the same order regardless of heap arity, of which events travel on
// lanes, or of other implementation details.
package eventq

import (
	"fmt"
	"time"
)

// arity is the heap fan-out. Four children per node halves the tree
// depth of a binary heap; sift-down scans at most four children per
// level, which stays within one cache line for the entry sizes the
// simulators use.
const arity = 4

// entry is one scheduled event: its instant, its tie-break sequence,
// and the caller's payload.
type entry[T any] struct {
	t   time.Duration
	seq uint64
	v   T
}

// less orders entries by (t, seq). Sequences are unique, so the order
// is total and Pop is deterministic.
func (e *entry[T]) less(o *entry[T]) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Queue is a deterministic min-heap of timed events plus any number of
// FIFO lanes. The zero value is an empty queue ready for use.
type Queue[T any] struct {
	entries []entry[T]
	seq     uint64

	lanes []lane[T]
	// laneLen counts the events held across every lane; first indexes
	// the lane whose front is the least (t, seq) among lane fronts. It
	// is meaningful only while laneLen > 0, so a pop that finds no lane
	// event costs one compare.
	laneLen int
	first   int
}

// lane is one FIFO of events whose instants never decrease. Push order
// is (t, seq) order within it, so its front is its least event.
type lane[T any] struct {
	fifo Deque[entry[T]]
	last time.Duration
}

// Lane names one of a Queue's FIFO lanes (see NewLane).
type Lane int

// Len reports the number of pending events, heap and lanes together.
func (q *Queue[T]) Len() int { return len(q.entries) + q.laneLen }

// Reserve grows the heap's storage to hold at least n events without
// reallocating. Lanes grow on their own.
func (q *Queue[T]) Reserve(n int) {
	if cap(q.entries) < n {
		grown := make([]entry[T], len(q.entries), n)
		copy(grown, q.entries)
		q.entries = grown
	}
}

// Push schedules v at instant t, assigning the next sequence number.
// Events pushed earlier win ties at equal t.
func (q *Queue[T]) Push(t time.Duration, v T) {
	e := entry[T]{t: t, seq: q.seq, v: v}
	q.seq++
	q.entries = append(q.entries, e)
	q.siftUp(len(q.entries) - 1)
}

// NewLane adds an empty FIFO lane to the queue and returns its name.
func (q *Queue[T]) NewLane() Lane {
	q.lanes = append(q.lanes, lane[T]{})
	return Lane(len(q.lanes) - 1)
}

// PushLane schedules v at instant t on lane l, assigning the next
// sequence number from the counter Push uses, so Pop orders it against
// heap events exactly as if it had been pushed onto the heap. Instants
// pushed onto one lane must never decrease; PushLane panics on a push
// earlier than the lane's previous one.
func (q *Queue[T]) PushLane(l Lane, t time.Duration, v T) {
	ln := &q.lanes[l]
	if t < ln.last {
		panic(fmt.Sprintf("eventq: lane %d pushed %v after %v", l, t, ln.last))
	}
	ln.last = t
	ln.fifo.PushBack(entry[T]{t: t, seq: q.seq, v: v})
	q.seq++
	// A lane that was empty has a new front. It carries the newest
	// sequence, so it leads only at a strictly earlier instant.
	if ln.fifo.Len() == 1 && (q.laneLen == 0 || t < q.lanes[q.first].fifo.front().t) {
		q.first = int(l)
	}
	q.laneLen++
}

// Pop removes and returns the earliest event across the heap and the
// lanes. It must not be called on an empty queue (guard with Len).
func (q *Queue[T]) Pop() (time.Duration, T) {
	if q.laneLen > 0 {
		fifo := &q.lanes[q.first].fifo
		if len(q.entries) == 0 || fifo.front().less(&q.entries[0]) {
			e := fifo.PopFront()
			q.laneLen--
			q.findFirst()
			return e.t, e.v
		}
	}
	root := q.entries[0]
	last := len(q.entries) - 1
	if last > 0 {
		q.entries[0] = q.entries[last]
	}
	// Clear the vacated slot so payloads holding pointers don't pin
	// their referents beyond the event's lifetime.
	q.entries[last] = entry[T]{}
	q.entries = q.entries[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return root.t, root.v
}

// findFirst re-points first at the lane with the least front after a
// lane pop.
func (q *Queue[T]) findFirst() {
	var best *entry[T]
	for i := range q.lanes {
		fifo := &q.lanes[i].fifo
		if fifo.Len() > 0 && (best == nil || fifo.front().less(best)) {
			best = fifo.front()
			q.first = i
		}
	}
}

func (q *Queue[T]) siftUp(i int) {
	e := q.entries[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !e.less(&q.entries[parent]) {
			break
		}
		q.entries[i] = q.entries[parent]
		i = parent
	}
	q.entries[i] = e
}

func (q *Queue[T]) siftDown(i int) {
	e := q.entries[i]
	n := len(q.entries)
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.entries[c].less(&q.entries[min]) {
				min = c
			}
		}
		if !q.entries[min].less(&e) {
			break
		}
		q.entries[i] = q.entries[min]
		i = min
	}
	q.entries[i] = e
}
