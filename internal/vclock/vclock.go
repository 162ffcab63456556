// Package vclock provides a deterministic virtual clock used by the
// simulated GPU, the inference engine, and the serverless cluster
// simulator. All latencies in this repository are virtual: they model the
// timing of the paper's testbed (A100-40GB GPUs, Optane SSD array) without
// consuming wall-clock time, which keeps experiments fast and exactly
// reproducible.
//
// The clock is single-goroutine by design: simulated work advances it
// explicitly. Logical parallelism (for example vLLM+ASYNC's overlapped
// weight loading, or Medusa's warm-up running next to disk I/O) can be
// expressed with Parallel, which forks branch clocks from the current
// instant and joins them at the latest finish time.
package vclock

import (
	"fmt"
	"time"
)

// Clock is a virtual clock. The zero value is a clock at time zero.
type Clock struct {
	now time.Duration
}

// New returns a clock starting at time zero.
func New() *Clock { return &Clock{} }

// NewAt returns a clock starting at the given instant.
func NewAt(t time.Duration) *Clock { return &Clock{now: t} }

// Now reports the current virtual time as an offset from the simulation
// origin.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time, like real time, does not run backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to instant t. Moving to the current
// instant is a no-op; moving backwards panics.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("vclock: AdvanceTo(%v) would move clock backwards from %v", t, c.now))
	}
	c.now = t
}

// Branch returns a new clock starting at the current instant of c.
// Branches model concurrent activities: they advance independently and
// are typically joined back with Join or through Parallel.
func (c *Clock) Branch() *Clock { return &Clock{now: c.now} }

// Join advances c to the later of its own time and the branch's time.
func (c *Clock) Join(branch *Clock) {
	if branch.now > c.now {
		c.now = branch.now
	}
}

// Parallel runs each fn on its own branch forked at the current instant,
// then advances c to the latest branch finish time. It returns the
// duration each branch consumed, in argument order. Branches run
// sequentially in real time (determinism) but concurrently in virtual
// time.
func (c *Clock) Parallel(fns ...func(*Clock)) []time.Duration {
	start := c.now
	durs := make([]time.Duration, len(fns))
	end := start
	for i, fn := range fns {
		b := c.Branch()
		fn(b)
		durs[i] = b.now - start
		if b.now > end {
			end = b.now
		}
	}
	c.now = end
	return durs
}

// Span measures the virtual duration of fn as observed on c.
func (c *Clock) Span(fn func()) time.Duration {
	start := c.now
	fn()
	return c.now - start
}

// Stopwatch captures an instant on a clock and reports elapsed virtual
// time since then.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// StartWatch returns a stopwatch anchored at the clock's current instant.
func (c *Clock) StartWatch() Stopwatch {
	return Stopwatch{clock: c, start: c.now}
}

// Elapsed reports the virtual time since the stopwatch was started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.now - s.start }
