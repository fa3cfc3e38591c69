//go:build race

package server

// raceEnabled reports whether the race detector instruments this build;
// its allocations would fail the allocation gate.
const raceEnabled = true
