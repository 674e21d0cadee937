// Package profiling wires pprof capture into the CLIs. A command exposes
// -cpuprofile/-memprofile flags, calls Start with their values, and defers
// the returned stop function; the profiles land wherever the operator
// pointed them, ready for `go tool pprof`.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath and arranges a heap profile into
// memPath; either path may be empty to skip that profile. The returned stop
// flushes and closes everything and must run exactly once, after the
// workload — typically via defer. When both paths are empty, Start is free
// and stop is a no-op.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = fmt.Errorf("profiling: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("profiling: %w", err)
				}
				return firstErr
			}
			runtime.GC() // fold transient garbage out of the heap picture
			if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("profiling: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("profiling: close heap profile: %w", err)
			}
		}
		return firstErr
	}, nil
}

// AllocBytes reports the heap bytes one call of f allocates: the mean over
// runs calls, after one warm-up call that fills pools and finishes lazy
// set-up. It is testing.AllocsPerRun for bytes and works as that does: on one
// P (a sync.Pool is per-P, so a migration would read as an allocation), and
// counting the whole process, so a test calling it must not run in parallel
// with others.
func AllocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
