// Package rng provides a deterministic, seedable pseudo-random number
// generator with stable stream derivation.
//
// Every stochastic component in the simulator (actor behaviours, inventory
// generation, threat-event placement) draws from a Source derived from a
// scenario master seed, so an identical seed reproduces a byte-identical
// dataset across runs and platforms. The core generator is xoshiro256**,
// seeded through splitmix64; substreams are derived by hashing string labels
// into the seed, which keeps independent components decoupled: adding draws
// to one actor never perturbs another.
package rng

import "math"

// Source is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; derive one Source per goroutine.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream identified by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Derive returns a new Source whose stream is a deterministic function of
// this source's seed material and the given labels. Deriving with the same
// labels always yields the same stream; distinct labels yield decorrelated
// streams.
func (r *Source) Derive(labels ...string) *Source {
	h := r.s[0] ^ rotl(r.s[2], 17)
	for _, label := range labels {
		h = hashLabel(h, label)
	}
	return New(h)
}

// DeriveN returns a substream keyed by an integer, convenient for per-actor
// or per-index streams.
func (r *Source) DeriveN(label string, n uint64) *Source {
	h := hashLabel(r.s[0]^rotl(r.s[2], 17), label)
	_, h2 := splitmix64(h ^ (n * 0x9e3779b97f4a7c15))
	return New(h2)
}

// hashLabel folds a string into h with an FNV-1a style mix hardened by
// splitmix finalization.
func hashLabel(h uint64, label string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	_, out := splitmix64(h)
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		lo, hi := bits128(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// bits128 computes the 128-bit product v*n and returns (low64, high64).
func bits128(v, n uint64) (lo, hi uint64) {
	const mask32 = 1<<32 - 1
	vl, vh := v&mask32, v>>32
	nl, nh := n&mask32, n>>32

	ll := vl * nl
	lh := vl * nh
	hl := vh * nl
	hh := vh * nh

	mid := lh + hl
	carry := uint64(0)
	if mid < lh {
		carry = 1 << 32
	}
	lo = ll + mid<<32
	if lo < ll {
		hh++
	}
	hi = hh + mid>>32 + carry
	return lo, hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, via the Box-Muller transform.
func (r *Source) NormFloat64() float64 {
	// Draw u1 in (0, 1] to keep Log finite.
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
