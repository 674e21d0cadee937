package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from distinct seeds collided %d/100 times", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	var allZero = true
	for i := 0; i < 16; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("seed 0 produced a degenerate all-zero stream")
	}
}

func TestDeriveStableAndIndependent(t *testing.T) {
	root := New(7)
	a1 := root.Derive("scanner")
	a2 := New(7).Derive("scanner")
	b := New(7).Derive("prober")
	for i := 0; i < 100; i++ {
		va1, va2, vb := a1.Uint64(), a2.Uint64(), b.Uint64()
		if va1 != va2 {
			t.Fatalf("derive not stable at draw %d", i)
		}
		if va1 == vb {
			t.Fatalf("derived streams for distinct labels collided at draw %d", i)
		}
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive("x", "y")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive mutated parent stream")
		}
	}
}

func TestDeriveNDistinct(t *testing.T) {
	root := New(5)
	seen := make(map[uint64]uint64)
	for n := uint64(0); n < 500; n++ {
		v := root.DeriveN("actor", n).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("DeriveN(%d) first draw collided with DeriveN(%d)", n, prev)
		}
		seen[v] = n
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expectation %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(19)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(37)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(47)
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range data {
		sum += v
	}
	r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	got := 0
	for _, v := range data {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", data)
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(53)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bits128 agrees with big-integer multiplication on the high word.
func TestBits128Property(t *testing.T) {
	f := func(v, n uint64) bool {
		lo, hi := bits128(v, n)
		// Verify via math/bits-free decomposition: reconstruct mod 2^64.
		if lo != v*n {
			return false
		}
		// High word check against 32-bit schoolbook recomputation.
		const mask = 1<<32 - 1
		vl, vh := v&mask, v>>32
		nl, nh := n&mask, n>>32
		carry := (vl*nl)>>32 + (vl*nh)&mask + (vh*nl)&mask
		wantHi := vh*nh + (vl*nh)>>32 + (vh*nl)>>32 + carry>>32
		return hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
