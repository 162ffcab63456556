package obs

import (
	"sync"
	"testing"
)

// TestCounterConcurrentAdd pins that the registry stays safe for
// concurrent use now that counters are lock-free: goroutines that look
// a counter up by name and add to it concurrently lose no increment,
// and make test-race finds no race.
func TestCounterConcurrentAdd(t *testing.T) {
	const workers, adds = 4, 10000
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if i%2 == 0 {
					r.Counter("c").Inc()
				} else {
					r.Counter("c").Add(2)
				}
				_ = r.Counter("c").Value()
			}
		}()
	}
	wg.Wait()
	if got, want := r.Counter("c").Value(), int64(workers*adds/2*3); got != want {
		t.Fatalf("counter = %d after concurrent adds, want %d", got, want)
	}
}
