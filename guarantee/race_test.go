//go:build race

package guarantee

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under it.
const raceEnabled = true
