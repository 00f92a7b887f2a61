//go:build race

package dataplane

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under it.
const raceEnabled = true
