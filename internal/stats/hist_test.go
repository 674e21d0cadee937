package stats

import "testing"

func TestLogHistogramBuckets(t *testing.T) {
	h := NewLogHistogram(0, 3) // edges 1, 10, 100, 1000
	if len(h.Edges) != 4 || len(h.Counts) != 5 {
		t.Fatalf("edges %v counts %d", h.Edges, len(h.Counts))
	}
	h.Observe(0.5)  // bucket 0 (<= 1)
	h.Observe(1)    // bucket 0 (<= 1)
	h.Observe(5)    // bucket 1
	h.Observe(10)   // bucket 1
	h.Observe(999)  // bucket 3
	h.Observe(5000) // overflow bucket 4
	want := []int{2, 2, 0, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d want %d (all %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestLogHistogramSwappedExponents(t *testing.T) {
	h := NewLogHistogram(3, 0)
	if len(h.Edges) != 4 || h.Edges[0] != 1 {
		t.Fatalf("edges %v", h.Edges)
	}
}

func TestLogHistogramCumFraction(t *testing.T) {
	h := NewLogHistogram(0, 2)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	cf := h.CumFraction()
	want := []float64{0.25, 0.5, 0.75}
	for i, w := range want {
		if cf[i] != w {
			t.Errorf("CumFraction[%d] = %v want %v", i, cf[i], w)
		}
	}
	// Monotone.
	for i := 1; i < len(cf); i++ {
		if cf[i] < cf[i-1] {
			t.Fatal("CumFraction not monotone")
		}
	}
}

func TestLogHistogramEmptyCumFraction(t *testing.T) {
	h := NewLogHistogram(0, 2)
	for _, v := range h.CumFraction() {
		if v != 0 {
			t.Fatal("empty histogram fraction non-zero")
		}
	}
}
