//go:build race

package profiling

// RaceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool.Put drops a random fraction of what it is given (runtime
// behaviour, not a leak), so a test asserting that pooled scratch is reused,
// or bounding what a call allocates, cannot hold and skips itself.
const RaceEnabled = true
