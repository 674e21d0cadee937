package rng

import (
	"math"
	"sort"
)

// Categorical samples indices proportionally to a fixed weight vector. It is
// the workhorse for drawing countries, ISPs, device types, and port mixes
// that must match the paper's published marginal distributions.
type Categorical struct {
	cum []float64 // cumulative weights, strictly increasing
}

// NewCategorical builds a categorical distribution over len(weights)
// outcomes. Negative weights are treated as zero. It panics if the total
// weight is not positive.
func NewCategorical(weights []float64) *Categorical {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: categorical distribution needs positive total weight")
	}
	return &Categorical{cum: cum}
}

// Sample draws an outcome index in [0, len(weights)).
func (c *Categorical) Sample(r *Source) int {
	total := c.cum[len(c.cum)-1]
	u := r.Float64() * total
	return sort.SearchFloat64s(c.cum, math.Nextafter(u, math.Inf(1)))
}

// N returns the number of outcomes.
func (c *Categorical) N() int { return len(c.cum) }

// Zipf samples ranks 1..n with probability proportional to 1/rank^s.
// Port and destination popularity in darknet traffic is heavy-tailed; Zipf
// reproduces the "top 10 ports get ~10 % of packets, the rest spread over
// 60 000 ports" shape reported in the paper.
type Zipf struct {
	cum []float64
}

// NewZipf builds a Zipf distribution over ranks 1..n with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	return &Zipf{cum: cum}
}

// Sample draws a rank in [1, n].
func (z *Zipf) Sample(r *Source) int {
	total := z.cum[len(z.cum)-1]
	u := r.Float64() * total
	return sort.SearchFloat64s(z.cum, math.Nextafter(u, math.Inf(1))) + 1
}

// Pareto returns a Pareto(xm, alpha) variate: heavy-tailed volumes such as
// per-device packet counts (a few devices emit millions of packets, half
// emit fewer than 170 — Fig. 6).
func (r *Source) Pareto(xm, alpha float64) float64 {
	u := 1 - r.Float64() // (0, 1]
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal returns an exp(Normal(mu, sigma)) variate.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Poisson returns a Poisson(lambda) variate. Knuth's method is used for
// small lambda and a normal approximation beyond, which is ample for
// traffic-arrival counts. A NaN lambda yields 0, like a non-positive one:
// Knuth's loop never ends on it.
func (r *Source) Poisson(lambda float64) int {
	if !(lambda > 0) {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial returns a Binomial(n, p) variate by direct simulation for small n
// and a normal approximation for large n.
func (r *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n > 128 {
		mean := float64(n) * p
		sd := math.Sqrt(float64(n) * p * (1 - p))
		v := int(mean + sd*r.NormFloat64() + 0.5)
		if v < 0 {
			return 0
		}
		if v > n {
			return n
		}
		return v
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}

// SampleK draws k distinct ints from [0, n) without replacement using a
// partial Fisher-Yates over a dense range (k close to n) or rejection over a
// set (k << n).
func (r *Source) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Rejection sampling is cheaper when the sample is sparse.
	if n > 4*k {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k:k]
}
