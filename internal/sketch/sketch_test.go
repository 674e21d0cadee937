package sketch

import (
	"bytes"
	"math"
	"testing"

	"iotscope/internal/rng"
)

func TestNewHLLPrecisionBounds(t *testing.T) {
	for _, p := range []int{3, 19, -1} {
		if _, err := NewHLL(p); err == nil {
			t.Errorf("precision %d accepted", p)
		}
	}
	for _, p := range []int{4, 14, 18} {
		if _, err := NewHLL(p); err != nil {
			t.Errorf("precision %d rejected: %v", p, err)
		}
	}
}

func TestHLLEmpty(t *testing.T) {
	h, _ := NewHLL(12)
	if got := h.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %d", got)
	}
}

func TestHLLAccuracy(t *testing.T) {
	r := rng.New(7)
	for _, n := range []uint64{10, 100, 1000, 50000, 500000} {
		h, _ := NewHLL(14)
		for i := uint64(0); i < n; i++ {
			h.Add(r.Uint64())
		}
		got := float64(h.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.05 {
			t.Errorf("n=%d: estimate %v (rel err %.3f)", n, got, relErr)
		}
	}
}

func TestHLLDuplicatesIgnored(t *testing.T) {
	h, _ := NewHLL(12)
	for i := 0; i < 100000; i++ {
		h.AddAddr(uint32(i % 50))
	}
	est := h.Estimate()
	if est < 45 || est > 55 {
		t.Fatalf("50 distinct keys estimated as %d", est)
	}
}

func TestHLLMerge(t *testing.T) {
	r := rng.New(11)
	a, _ := NewHLL(13)
	b, _ := NewHLL(13)
	union, _ := NewHLL(13)
	for i := 0; i < 30000; i++ {
		v := r.Uint64()
		a.Add(v)
		union.Add(v)
	}
	for i := 0; i < 30000; i++ {
		v := r.Uint64()
		b.Add(v)
		union.Add(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	ea, eu := float64(a.Estimate()), float64(union.Estimate())
	if math.Abs(ea-eu)/eu > 0.01 {
		t.Fatalf("merged estimate %v != union estimate %v", ea, eu)
	}
}

// Raised is the sparse record of a Merge: replaying it with Raise onto a
// copy of the pre-merge sketch reproduces the merged registers exactly, and
// it lists nothing the merge would not change.
func TestHLLRaisedReplaysMerge(t *testing.T) {
	a, _ := NewHLL(10)
	b, _ := NewHLL(10)
	for i := uint32(0); i < 3000; i++ {
		a.AddAddr(i)
		b.AddAddr(i + 2000)
	}
	replay, _ := RestoreHLL(10, a.AppendRegisters(nil))
	n := 0
	if err := a.Raised(b, func(i int, rank uint8) {
		n++
		if err := replay.Raise(i, rank); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n == 1<<10 {
		t.Fatalf("raised %d of %d registers; the record should be sparse and non-empty", n, 1<<10)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.AppendRegisters(nil), a.AppendRegisters(nil)) {
		t.Fatal("replayed record differs from the merge")
	}
	if err := a.Raised(b, func(int, uint8) { t.Fatal("a merged sketch has nothing left to raise") }); err != nil {
		t.Fatal(err)
	}

	other, _ := NewHLL(11)
	if err := a.Raised(other, func(int, uint8) {}); err != ErrPrecisionMismatch {
		t.Fatalf("mismatched Raised: %v", err)
	}
	// Precision 10 leaves 54 hash bits: rank 55 is the most a register holds.
	if a.Raise(1<<10, 1) == nil || a.Raise(-1, 1) == nil || a.Raise(0, 56) == nil {
		t.Fatal("Raise accepted an update outside the sketch")
	}
	if err := a.Raise(0, 55); err != nil {
		t.Fatal(err)
	}
}

func TestHLLMergePrecisionMismatch(t *testing.T) {
	a, _ := NewHLL(12)
	b, _ := NewHLL(13)
	if err := a.Merge(b); err == nil {
		t.Fatal("mismatched merge accepted")
	}
}

func TestHLLReset(t *testing.T) {
	h, _ := NewHLL(12)
	for i := uint32(0); i < 1000; i++ {
		h.AddAddr(i)
	}
	h.Reset()
	if got := h.Estimate(); got != 0 {
		t.Fatalf("estimate after reset = %d", got)
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := make(map[uint64]bool, 10000)
	for i := uint64(0); i < 10000; i++ {
		h := Hash64(i)
		if seen[h] {
			t.Fatalf("hash collision at %d", i)
		}
		seen[h] = true
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h, _ := NewHLL(14)
	for i := 0; i < b.N; i++ {
		h.AddAddr(uint32(i))
	}
}
