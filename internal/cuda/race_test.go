//go:build race

package cuda

// raceEnabled reports a -race build, under which allocation counts
// differ and the allocation gates are skipped.
const raceEnabled = true
