package experiments

import (
	"runtime"
	"testing"
)

// TestExtScaleDeterministicAcrossWorkers pins the parallel-replication
// determinism argument end to end: the sweep's report — five fleet
// replications fanned across a worker pool that shares one profile
// cache, merged into mean ± CI — renders byte-identically however many
// workers GOMAXPROCS grants.
func TestExtScaleDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		r := runExp(t, "ext-scale")
		if len(r.Rows) != extScaleReps {
			t.Fatalf("want %d replication rows, got %d", extScaleReps, len(r.Rows))
		}
		got := r.Render()
		if procs == 1 {
			first = got
		} else if got != first {
			t.Fatalf("ext-scale output depends on worker count:\n--- GOMAXPROCS %d\n%s\n--- GOMAXPROCS 1\n%s", procs, got, first)
		}
	}
}
