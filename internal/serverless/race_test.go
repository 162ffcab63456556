//go:build race

package serverless

// raceEnabled reports a -race build, under which single-goroutine
// sweeps that only re-check determinism are skipped.
const raceEnabled = true
