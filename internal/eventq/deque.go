package eventq

// Deque is a growable ring-buffer FIFO. The simulators' pending-request
// queues previously advanced a slice head (`q = q[1:]`), which keeps
// the whole arrival history reachable until the next append reallocates;
// the ring reuses its storage, so a queue that oscillates around depth
// k holds O(k) memory no matter how many requests stream through it.
// The zero value is an empty deque ready for use.
type Deque[T any] struct {
	buf        []T
	head, size int
}

// Len reports the number of queued elements.
func (d *Deque[T]) Len() int { return d.size }

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)%len(d.buf)] = v
	d.size++
}

// Front returns the head element without removing it. It must not be
// called on an empty deque (guard with Len).
func (d *Deque[T]) Front() T { return d.buf[d.head] }

// front points at the head element in place (non-empty deque only).
func (d *Deque[T]) front() *T { return &d.buf[d.head] }

// PopFront removes and returns the head element. It must not be called
// on an empty deque (guard with Len).
func (d *Deque[T]) PopFront() T {
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero // release pointer payloads promptly
	d.head = (d.head + 1) % len(d.buf)
	d.size--
	return v
}

func (d *Deque[T]) grow() {
	next := len(d.buf) * 2
	if next == 0 {
		next = 8
	}
	buf := make([]T, next)
	for i := 0; i < d.size; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}
