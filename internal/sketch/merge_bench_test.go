package sketch

import (
	"testing"
)

// The shard merge plane calls Merge O(shards x hour-cells) times; both
// merges must be allocation-free on matched dimensions so the plane's cost
// is pure register arithmetic.

func TestHLLMergeAllocationFree(t *testing.T) {
	a, err := NewHLL(12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHLL(12)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4096; i++ {
		a.AddAddr(i)
		b.AddAddr(i * 7)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("HLL.Merge allocated %.1f objects per run, want 0", allocs)
	}
	// Mismatched precision must also stay allocation-free: the sentinel is
	// package-level, not built per call.
	c, err := NewHLL(10)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := a.Merge(c); err != ErrPrecisionMismatch {
			t.Fatalf("got %v, want ErrPrecisionMismatch", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("HLL.Merge (mismatch path) allocated %.1f objects per run, want 0", allocs)
	}
}

func BenchmarkHLLMerge(b *testing.B) {
	x, err := NewHLL(14)
	if err != nil {
		b.Fatal(err)
	}
	y, err := NewHLL(14)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint32(0); i < 1<<16; i++ {
		x.AddAddr(i)
		y.AddAddr(i * 2654435761)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}
