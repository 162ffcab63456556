//go:build !race

package cuda

const raceEnabled = false
