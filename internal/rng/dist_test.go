package rng

import (
	"math"
	"testing"
	"time"
)

func TestCategoricalMatchesWeights(t *testing.T) {
	r := New(101)
	weights := []float64{1, 2, 3, 4}
	c := NewCategorical(weights)
	if len(c.cum) != 4 {
		t.Fatalf("N = %d", len(c.cum))
	}
	const draws = 200000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[c.Sample(r)]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := counts[i] / draws
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d: frequency %v want %v", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	r := New(103)
	c := NewCategorical([]float64{0, 1, 0, 2, 0})
	for i := 0; i < 50000; i++ {
		switch c.Sample(r) {
		case 1, 3:
		default:
			t.Fatal("sampled a zero-weight outcome")
		}
	}
}

func TestCategoricalNegativeTreatedAsZero(t *testing.T) {
	r := New(107)
	c := NewCategorical([]float64{-5, 1})
	for i := 0; i < 10000; i++ {
		if c.Sample(r) != 1 {
			t.Fatal("sampled a negative-weight outcome")
		}
	}
}

func TestCategoricalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for all-zero weights")
		}
	}()
	NewCategorical([]float64{0, 0})
}

func TestZipfRankOrdering(t *testing.T) {
	r := New(109)
	z := NewZipf(100, 1.0)
	const draws = 200000
	counts := make([]int, 101)
	for i := 0; i < draws; i++ {
		rank := z.Sample(r)
		if rank < 1 || rank > 100 {
			t.Fatalf("rank %d out of bounds", rank)
		}
		counts[rank]++
	}
	if !(counts[1] > counts[2] && counts[2] > counts[5] && counts[5] > counts[50]) {
		t.Fatalf("Zipf counts not decreasing: c1=%d c2=%d c5=%d c50=%d",
			counts[1], counts[2], counts[5], counts[50])
	}
	// For s=1, P(1)/P(2) = 2.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("P(1)/P(2) = %v, want ~2", ratio)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(113)
	const draws = 100000
	exceed := 0
	for i := 0; i < draws; i++ {
		v := r.Pareto(1, 1.2)
		if v < 1 {
			t.Fatalf("Pareto below scale: %v", v)
		}
		if v > 10 {
			exceed++
		}
	}
	// P(X > 10) = 10^-1.2 ~= 0.063.
	p := float64(exceed) / draws
	if math.Abs(p-math.Pow(10, -1.2)) > 0.01 {
		t.Errorf("tail probability %v", p)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(127)
	const draws = 100000
	below := 0
	mu := 3.0
	for i := 0; i < draws; i++ {
		if r.LogNormal(mu, 1.5) < math.Exp(mu) {
			below++
		}
	}
	p := float64(below) / draws
	if math.Abs(p-0.5) > 0.01 {
		t.Errorf("median split %v, want 0.5", p)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(131)
	for _, lambda := range []float64{0.5, 4, 30, 200} {
		const draws = 50000
		sum := 0
		for i := 0; i < draws; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / draws
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/draws)+0.6 {
			t.Errorf("lambda %v: mean %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda must be 0")
	}
}

// A NaN mean (a budget divided by a zero burst discount) returns 0 and
// draws nothing; Knuth's loop never ends on one.
func TestPoissonNaN(t *testing.T) {
	done := make(chan int, 1)
	r := New(139)
	go func() { done <- r.Poisson(math.NaN()) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("Poisson(NaN) = %d, want 0", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Poisson(NaN) still running after 5s")
	}
	if got, want := r.Uint64(), New(139).Uint64(); got != want {
		t.Fatal("Poisson(NaN) advanced the stream")
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := New(139)
	for _, tc := range []struct{ n, k int }{{10, 10}, {10, 3}, {1000, 10}, {100, 99}, {5, 0}} {
		s := r.SampleK(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("SampleK(%d,%d) len %d", tc.n, tc.k, len(s))
		}
		seen := make(map[int]bool, tc.k)
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("SampleK(%d,%d) = %v invalid", tc.n, tc.k, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleK(3, 4) did not panic")
		}
	}()
	New(1).SampleK(3, 4)
}

func TestSampleKCoversRange(t *testing.T) {
	r := New(149)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		for _, v := range r.SampleK(20, 5) {
			seen[v] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("SampleK never produced %d/20 values", 20-len(seen))
	}
}

func BenchmarkCategoricalSample(b *testing.B) {
	r := New(1)
	weights := make([]float64, 200)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	c := NewCategorical(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Sample(r)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(65536, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}
