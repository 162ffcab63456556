package eventq

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent / refHeap reimplement the container/heap event queue the
// simulators used before the 4-ary migration — the oracle the generic
// queue must match pop-for-pop.
type refEvent struct {
	t   time.Duration
	seq int
	v   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TestQueueMatchesContainerHeap drives both implementations with the
// same interleaved push/pop schedule, including deliberate timestamp
// collisions, and requires identical pop sequences.
func TestQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue[int]
	var ref refHeap
	seq := 0
	pushes, pops := 0, 0
	for step := 0; step < 20000; step++ {
		if q.Len() != ref.Len() {
			t.Fatalf("length diverged: %d vs %d", q.Len(), ref.Len())
		}
		if q.Len() == 0 || rng.Intn(3) != 0 {
			// Coarse timestamps force frequent ties so the (t, seq)
			// tie-break is actually exercised.
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			q.Push(at, step)
			heap.Push(&ref, refEvent{t: at, seq: seq, v: step})
			seq++
			pushes++
		} else {
			gt, gv := q.Pop()
			want := heap.Pop(&ref).(refEvent)
			if gt != want.t || gv != want.v {
				t.Fatalf("pop %d diverged: got (%v, %d), want (%v, %d)", pops, gt, gv, want.t, want.v)
			}
			pops++
		}
	}
	for q.Len() > 0 {
		gt, gv := q.Pop()
		want := heap.Pop(&ref).(refEvent)
		if gt != want.t || gv != want.v {
			t.Fatalf("drain diverged: got (%v, %d), want (%v, %d)", gt, gv, want.t, want.v)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("oracle still holds %d events", ref.Len())
	}
	if pushes < 1000 || pops < 1000 {
		t.Fatalf("schedule too tame: %d pushes, %d pops", pushes, pops)
	}
}

// testLanes is the lane count the lane property test and fuzzer use.
const testLanes = 3

// checkLanes interprets ops as a schedule of heap pushes, lane pushes
// and pops on a Queue with testLanes lanes, mirrors every operation in
// the container/heap oracle (one shared sequence counter), and fails on
// the first pop or length that differs. Instants advance like a
// simulation's: pushes land at or after the last popped instant, and
// lane pushes never precede their lane's previous push. Small time
// steps make equal-instant ties between the heap and the lanes common.
// It returns the numbers of lane pushes and pops performed.
func checkLanes(t *testing.T, ops []byte) (lanePushes, pops int) {
	t.Helper()
	var q Queue[int]
	var lanes [testLanes]Lane
	var laneLast [testLanes]time.Duration
	for i := range lanes {
		lanes[i] = q.NewLane()
	}
	var ref refHeap
	var now time.Duration
	pop := func(what string) {
		gt, gv := q.Pop()
		want := heap.Pop(&ref).(refEvent)
		if gt != want.t || gv != want.v {
			t.Fatalf("%s %d diverged: got (%v, %d), want (%v, %d)", what, pops, gt, gv, want.t, want.v)
		}
		now = gt
		pops++
	}
	for i, b := range ops {
		switch b % 4 {
		case 0:
			at := now + time.Duration(b>>2%8)*time.Millisecond
			q.Push(at, i)
			heap.Push(&ref, refEvent{t: at, seq: i, v: i})
		case 1, 2:
			l := int(b>>2) % testLanes
			at := max(laneLast[l], now) + time.Duration(b>>4%4)*time.Millisecond
			laneLast[l] = at
			q.PushLane(lanes[l], at, i)
			heap.Push(&ref, refEvent{t: at, seq: i, v: i})
			lanePushes++
		case 3:
			if q.Len() > 0 {
				pop("pop")
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("after op %d: Len = %d, oracle holds %d", i, q.Len(), ref.Len())
		}
	}
	for q.Len() > 0 {
		pop("drain")
	}
	if ref.Len() != 0 {
		t.Fatalf("oracle still holds %d events", ref.Len())
	}
	return lanePushes, pops
}

// TestQueueLanesMatchContainerHeap pins the lanes' pop contract: a
// queue splitting its events between the heap and FIFO lanes pops
// exactly what one container/heap holding every event would.
func TestQueueLanesMatchContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := make([]byte, 50000)
	rng.Read(ops)
	lanePushes, pops := checkLanes(t, ops)
	if lanePushes < 10000 || pops < 10000 {
		t.Fatalf("schedule too tame: %d lane pushes, %d pops", lanePushes, pops)
	}
}

func FuzzQueueLanes(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 3, 3})
	f.Add([]byte{1, 5, 9, 0, 3, 1, 3, 3, 3})
	f.Add([]byte{0x11, 0x21, 0x31, 0x04, 0x03, 0x43, 0x83, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkLanes(t, ops)
	})
}

// TestLanePushBackwardsPanics pins the lane invariant: an instant
// earlier than the lane's previous push would break the FIFO's order,
// so PushLane refuses it even when the lane has drained.
func TestLanePushBackwardsPanics(t *testing.T) {
	var q Queue[int]
	l := q.NewLane()
	q.PushLane(l, 2*time.Second, 0)
	q.PushLane(l, 2*time.Second, 1) // equal instants are in order
	q.Pop()
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("PushLane accepted an instant before the lane's previous push")
		}
	}()
	q.PushLane(l, time.Second, 2)
}

// TestLenCountsLanes pins that Len covers lane events, which the event
// loop's drain condition relies on.
func TestLenCountsLanes(t *testing.T) {
	var q Queue[int]
	a, b := q.NewLane(), q.NewLane()
	q.PushLane(a, time.Second, 0)
	q.PushLane(b, time.Second, 1)
	q.PushLane(a, 3*time.Second, 2)
	if q.Len() != 3 {
		t.Fatalf("Len = %d with three lane events, want 3", q.Len())
	}
	q.Push(2*time.Second, 3)
	want := []int{0, 1, 3, 2}
	for i, w := range want {
		if q.Len() != len(want)-i {
			t.Fatalf("Len = %d before pop %d, want %d", q.Len(), i, len(want)-i)
		}
		if _, v := q.Pop(); v != w {
			t.Fatalf("pop %d = %d, want %d", i, v, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestQueueFIFOAtEqualTime(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(time.Second, i)
	}
	for i := 0; i < 100; i++ {
		at, v := q.Pop()
		if at != time.Second || v != i {
			t.Fatalf("pop %d: got (%v, %d); ties must pop in push order", i, at, v)
		}
	}
}

func TestQueueReserve(t *testing.T) {
	var q Queue[string]
	q.Push(2*time.Second, "b")
	q.Reserve(1024)
	q.Push(time.Second, "a")
	if q.Len() != 2 {
		t.Fatalf("Len = %d after Reserve", q.Len())
	}
	if _, v := q.Pop(); v != "a" {
		t.Fatalf("Reserve broke ordering: popped %q", v)
	}
	if _, v := q.Pop(); v != "b" {
		t.Fatalf("Reserve broke ordering: popped %q", v)
	}
}

func TestDequeFIFO(t *testing.T) {
	var d Deque[int]
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 10000; step++ {
		if d.Len() == 0 || rng.Intn(3) != 0 {
			d.PushBack(next)
			next++
		} else {
			if got := d.Front(); got != expect {
				t.Fatalf("Front = %d, want %d", got, expect)
			}
			if got := d.PopFront(); got != expect {
				t.Fatalf("PopFront = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for d.Len() > 0 {
		if got := d.PopFront(); got != expect {
			t.Fatalf("drain PopFront = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d of %d pushed", expect, next)
	}
}

// TestDequeBoundedMemory pins the deque's reason for existing: a queue
// that oscillates around a small depth must not grow its buffer with
// total throughput.
func TestDequeBoundedMemory(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100000; i++ {
		d.PushBack(i)
		if d.Len() > 4 {
			d.PopFront()
		}
	}
	if len(d.buf) > 16 {
		t.Fatalf("ring grew to %d slots for a depth-4 queue", len(d.buf))
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue[int]
	rng := rand.New(rand.NewSource(1))
	at := make([]time.Duration, 1024)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(time.Hour)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(at[i%len(at)], i)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}

// BenchmarkQueuePushPopLanes runs a simulation-like mix at
// BenchmarkQueuePushPop's depth: half the events land at a random
// offset from the last popped instant, the other half at a fixed
// offset on one of two streams (sourced arrivals, an idle timer). The
// heap case pushes everything onto the heap; the lanes case puts each
// stream on its own lane. Both pop the same events.
func BenchmarkQueuePushPopLanes(b *testing.B) {
	for _, useLanes := range []bool{false, true} {
		name := "heap"
		if useLanes {
			name = "lanes"
		}
		b.Run(name, func(b *testing.B) {
			var q Queue[int]
			lanes := [2]Lane{q.NewLane(), q.NewLane()}
			delay := [2]time.Duration{time.Minute, 10 * time.Minute}
			rng := rand.New(rand.NewSource(1))
			at := make([]time.Duration, 1024)
			for i := range at {
				at[i] = time.Duration(rng.Int63n(int64(time.Hour)))
			}
			var now time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch l := i / 2 % 2; {
				case i%2 == 0:
					q.Push(now+at[i%len(at)], i)
				case useLanes:
					q.PushLane(lanes[l], now+delay[l], i)
				default:
					q.Push(now+delay[l], i)
				}
				if q.Len() > 512 {
					now, _ = q.Pop()
				}
			}
		})
	}
}
