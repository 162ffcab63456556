//go:build !race

package medusa

const raceEnabled = false
