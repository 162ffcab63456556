// Package replicate is the repository's one fan-out primitive: it runs
// n indexed jobs on a bounded worker pool and collects their results in
// index order. Simulation replications were its first use; per-graph
// analysis, the indirect-pointer scan, validation-forwarding shards and
// per-model offline phases run through it too.
//
// Determinism is the whole point: each job is a pure function of its
// index (callers derive seeds from it), workers share no mutable state,
// and results land in an index-addressed slice — so the merged output
// is byte-identical whether the pool ran with 1 worker or 16, and
// identical to running the jobs sequentially. Parallelism changes only
// the wall-clock, never the bytes. A caller that must report a job's
// error unwrapped keeps it in the result type and returns nil.
package replicate

import (
	"fmt"
	"runtime"
	"sync"
)

// Run executes fn(i) for i in [0, n) on up to workers concurrent
// goroutines and returns the results indexed by i. workers <= 0 uses
// GOMAXPROCS. The first error (lowest replication index) aborts the
// batch; replications already in flight finish but their results are
// discarded.
func Run[T any](n, workers int, fn func(rep int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, fmt.Errorf("replicate: need at least one replication, got %d", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replicate: replication %d: %w", i, err)
		}
	}
	return out, nil
}
