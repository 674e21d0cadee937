// Package stats implements the statistical machinery the paper's evaluation
// relies on: quantiles, the log-binned histograms behind the CDF
// figures (Figs. 6 and 11), Pearson correlation with significance
// (Sec. IV-A/IV-C), and the Mann-Whitney U test used to compare CPS and
// consumer traffic volumes (Sec. IV and IV-B).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a test needs more observations.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation. It returns NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// PearsonResult is a correlation estimate with its significance.
type PearsonResult struct {
	R float64 // correlation coefficient in [-1, 1]
	P float64 // two-sided p-value (t approximation)
	N int
}

// Pearson computes the Pearson product-moment correlation of paired samples.
// The p-value uses the t distribution approximated by the normal for
// n > 30 and an exact-ish incomplete-beta-free fallback otherwise; at the
// paper's n = 143 hourly observations the approximation error is negligible.
func Pearson(xs, ys []float64) (PearsonResult, error) {
	if len(xs) != len(ys) {
		return PearsonResult{}, errors.New("stats: Pearson needs equal-length samples")
	}
	n := len(xs)
	if n < 3 {
		return PearsonResult{}, ErrInsufficientData
	}
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(n), sumY/float64(n)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return PearsonResult{R: 0, P: 1, N: n}, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding spill.
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	res := PearsonResult{R: r, N: n}
	if math.Abs(r) == 1 {
		res.P = 0
		return res, nil
	}
	t := r * math.Sqrt(float64(n-2)/(1-r*r))
	res.P = 2 * (1 - studentTCDF(math.Abs(t), n-2))
	return res, nil
}

// studentTCDF approximates the CDF of Student's t with df degrees of freedom
// at x >= 0 using the normal approximation with a Cornish-Fisher style
// correction, accurate to ~1e-3 for df >= 5.
func studentTCDF(x float64, df int) float64 {
	v := float64(df)
	// Transform t to an approximately standard-normal deviate (Wallace 1959).
	z := math.Sqrt(v*math.Log(1+x*x/v)) * (1 - 3/(4*v+1) + 0) // leading terms
	if x < 0 {
		z = -z
	}
	return NormalCDF(z)
}

// NormalCDF returns the standard normal CDF via erf.
func NormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// MannWhitneyResult reports a two-sided Mann-Whitney U test.
type MannWhitneyResult struct {
	U  float64 // U statistic for the first sample
	U2 float64 // U statistic for the second sample (U + U2 = n1*n2)
	Z  float64 // normal-approximation z score (tie-corrected)
	P  float64 // two-sided p-value
	N1 int
	N2 int
}

// MannWhitneyU performs the two-sided Mann-Whitney U (Wilcoxon rank-sum)
// test with the normal approximation and tie correction — the test the paper
// applies to per-hour packet counts (p < 0.0001, U = 6061, Z = -5.95 for
// backscatter CPS vs consumer).
func MannWhitneyU(xs, ys []float64) (MannWhitneyResult, error) {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{}, ErrInsufficientData
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range xs {
		all = append(all, obs{v, 0})
	}
	for _, v := range ys {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie accounting.
	ranks := make([]float64, len(all))
	tieSum := 0.0 // sum of (t^3 - t) over tie groups
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		if t := float64(j - i); t > 1 {
			tieSum += t*t*t - t
		}
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	u2 := fn1*fn2 - u1

	mu := fn1 * fn2 / 2
	nTot := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * (nTot + 1 - tieSum/(nTot*(nTot-1)))
	res := MannWhitneyResult{U: u1, U2: u2, N1: n1, N2: n2}
	if sigma2 <= 0 {
		// All observations identical: no evidence of difference.
		res.P = 1
		return res, nil
	}
	// Continuity correction toward the mean.
	diff := u1 - mu
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(sigma2)
	res.P = 2 * (1 - NormalCDF(math.Abs(res.Z)))
	return res, nil
}
