package sketch

import (
	"testing"
	"testing/quick"

	"iotscope/internal/rng"
)

// Property: HLL merge is commutative — merge(A,B) estimates like merge(B,A).
func TestHLLMergeCommutativeProperty(t *testing.T) {
	f := func(seedA, seedB uint64, nA, nB uint16) bool {
		build := func(seed uint64, n int) *HLL {
			h, _ := NewHLL(12)
			r := rng.New(seed)
			for i := 0; i < n; i++ {
				h.Add(r.Uint64())
			}
			return h
		}
		ab := build(seedA, int(nA)%2000)
		ab2 := build(seedB, int(nB)%2000)
		if err := ab.Merge(ab2); err != nil {
			return false
		}

		ba := build(seedB, int(nB)%2000)
		ba2 := build(seedA, int(nA)%2000)
		if err := ba.Merge(ba2); err != nil {
			return false
		}
		return ab.Estimate() == ba.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging a sketch into itself is idempotent for the estimate.
func TestHLLMergeIdempotentProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		h, _ := NewHLL(12)
		r := rng.New(seed)
		for i := 0; i < int(n)%3000; i++ {
			h.Add(r.Uint64())
		}
		before := h.Estimate()
		clone, _ := NewHLL(12)
		clone.Merge(h)
		clone.Merge(h)
		return clone.Estimate() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
