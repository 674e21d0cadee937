package stats

import (
	"math"
	"testing"
	"testing/quick"

	"iotscope/internal/rng"
)

// Property: swapping the samples negates Z and preserves P.
func TestMannWhitneyAntisymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n1, n2 := 2+r.Intn(40), 2+r.Intn(40)
		xs, ys := make([]float64, n1), make([]float64, n2)
		for i := range xs {
			xs[i] = float64(r.Intn(20))
		}
		for i := range ys {
			ys[i] = float64(r.Intn(20))
		}
		a, err1 := MannWhitneyU(xs, ys)
		b, err2 := MannWhitneyU(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Z+b.Z) < 1e-9 && math.Abs(a.P-b.P) < 1e-9 &&
			math.Abs(a.U-b.U2) < 1e-9 && math.Abs(a.U2-b.U) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q and bounded by the sample range.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		m := int(n)%50 + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min = math.Min(min, x)
			max = math.Max(max, x)
		}
		return Quantile(xs, 0) == min && Quantile(xs, 1) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms of either
// sample.
func TestPearsonAffineInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(50)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = xs[i]*0.5 + r.NormFloat64()
		}
		base, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		scaled := make([]float64, n)
		a := 1 + r.Float64()*10 // positive scale
		b := r.NormFloat64() * 100
		for i := range xs {
			scaled[i] = a*xs[i] + b
		}
		tr, err := Pearson(scaled, ys)
		if err != nil {
			return false
		}
		return math.Abs(base.R-tr.R) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
