//go:build !race

package profiling

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = false
