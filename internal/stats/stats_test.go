package stats

import (
	"math"
	"testing"
	"testing/quick"

	"iotscope/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.1, 1}, {1.5, 5},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	res, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.R, 1, 1e-12) || res.P > 1e-9 {
		t.Fatalf("perfect correlation: %+v", res)
	}
	neg := []float64{10, 8, 6, 4, 2}
	res, _ = Pearson(xs, neg)
	if !almostEqual(res.R, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation R = %v", res.R)
	}
}

func TestPearsonIndependent(t *testing.T) {
	r := rng.New(21)
	n := 500
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	res, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.R) > 0.1 {
		t.Errorf("independent samples R = %v", res.R)
	}
	if res.P < 0.01 {
		t.Errorf("independent samples P = %v (spuriously significant)", res.P)
	}
}

func TestPearsonStrongNoisy(t *testing.T) {
	r := rng.New(23)
	n := 143 // the paper's hourly sample size
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*float64(i) + 10*r.NormFloat64()
	}
	res, _ := Pearson(xs, ys)
	if res.R < 0.9 {
		t.Errorf("R = %v", res.R)
	}
	if res.P > 1e-4 {
		t.Errorf("P = %v, want < 1e-4", res.P)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{3, 4}); err == nil {
		t.Error("n < 3 accepted")
	}
	res, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || res.R != 0 || res.P != 1 {
		t.Errorf("constant sample: %+v, %v", res, err)
	}
}

// Property: Pearson R is symmetric and bounded.
func TestPearsonSymmetryProperty(t *testing.T) {
	r := rng.New(29)
	f := func(seed uint32) bool {
		local := rng.New(uint64(seed))
		n := 3 + local.Intn(50)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = local.NormFloat64()
			ys[i] = local.NormFloat64()
		}
		a, err1 := Pearson(xs, ys)
		b, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a.R, b.R, 1e-9) && a.R >= -1 && a.R <= 1
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMannWhitneyKnownValue(t *testing.T) {
	// Hand-computed example: x = {1,2,3}, y = {4,5,6}: U1 = 0, U2 = 9.
	res, err := MannWhitneyU([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 || res.U2 != 9 {
		t.Fatalf("U=%v U2=%v", res.U, res.U2)
	}
}

func TestMannWhitneyShiftDetected(t *testing.T) {
	r := rng.New(31)
	n := 143
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64() + 1.0
	}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-4 {
		t.Errorf("shifted distributions not detected: p = %v", res.P)
	}
	if res.Z >= 0 {
		t.Errorf("Z = %v, want negative (first sample smaller)", res.Z)
	}
}

func TestMannWhitneyNoDifference(t *testing.T) {
	r := rng.New(37)
	n := 200
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64()
	}
	res, _ := MannWhitneyU(xs, ys)
	if res.P < 0.01 {
		t.Errorf("identical distributions flagged: p = %v", res.P)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	res, err := MannWhitneyU([]float64{1, 1, 2, 2}, []float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.U+res.U2, 16, 1e-9) {
		t.Fatalf("U1+U2 = %v, want n1*n2 = 16", res.U+res.U2)
	}
}

func TestMannWhitneyAllIdentical(t *testing.T) {
	res, err := MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Fatalf("identical constant samples p = %v", res.P)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, err := MannWhitneyU(nil, []float64{1}); err == nil {
		t.Fatal("empty sample accepted")
	}
}

// Property: U1 + U2 == n1*n2 and p in [0, 1].
func TestMannWhitneyInvariantProperty(t *testing.T) {
	f := func(seed uint32) bool {
		local := rng.New(uint64(seed))
		n1, n2 := 1+local.Intn(40), 1+local.Intn(40)
		xs, ys := make([]float64, n1), make([]float64, n2)
		for i := range xs {
			xs[i] = float64(local.Intn(10))
		}
		for i := range ys {
			ys[i] = float64(local.Intn(10))
		}
		res, err := MannWhitneyU(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(res.U+res.U2, float64(n1*n2), 1e-6) &&
			res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDF(t *testing.T) {
	tests := []struct{ z, want float64 }{
		{0, 0.5}, {1.96, 0.975}, {-1.96, 0.025}, {5.95, 1},
	}
	for _, tc := range tests {
		if got := NormalCDF(tc.z); !almostEqual(got, tc.want, 0.002) {
			t.Errorf("NormalCDF(%v) = %v want %v", tc.z, got, tc.want)
		}
	}
}
