// Package sketch provides streaming approximation structures for
// telescope-scale analytics. The CAIDA telescope the paper draws from sees
// over a billion packets per hour, most of it from sources outside any
// device inventory. The correlator counts those distinct background sources
// with a HyperLogLog: fixed memory per hour, mergeable across hours and
// workers, and checkpointable register by register. Per-hour unique
// destinations are counted exactly; EXPERIMENTS.md records the HLL-versus-
// exact measurement that settled that.
package sketch

import (
	"errors"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog cardinality estimator with 2^precision registers.
type HLL struct {
	registers []uint8
	precision uint8
}

// NewHLL returns an estimator with 2^precision registers. Precision must be
// in [4, 18]; 14 gives a standard error of about 0.8 % in 16 KiB.
func NewHLL(precision int) (*HLL, error) {
	if precision < 4 || precision > 18 {
		return nil, errors.New("sketch: HLL precision must be in [4, 18]")
	}
	return &HLL{
		registers: make([]uint8, 1<<uint(precision)),
		precision: uint8(precision),
	}, nil
}

// Add inserts a pre-hashed 64-bit item. Callers hash their keys with Hash64.
func (h *HLL) Add(hash uint64) {
	p := uint(h.precision)
	idx := hash >> (64 - p)
	rest := hash<<p | 1<<(p-1) // ensure a terminating bit
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// AddAddr inserts a 32-bit key (e.g. an IPv4 address or port).
func (h *HLL) AddAddr(v uint32) { h.Add(Hash64(uint64(v))) }

// Estimate returns the approximate number of distinct items added.
func (h *HLL) Estimate() uint64 {
	m := float64(len(h.registers))
	sum := 0.0
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := alphaM(len(h.registers))
	est := alpha * m * m / sum
	// Linear counting for small cardinalities.
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	if est < 0 {
		return 0
	}
	return uint64(est + 0.5)
}

// ErrPrecisionMismatch is returned by HLL.Merge when the two sketches were
// built with different precisions. It is a package-level sentinel so the
// merge itself never allocates — the shard merge plane calls Merge once per
// (shard, hour, category) cell and relies on it being allocation-free.
var ErrPrecisionMismatch = errors.New("sketch: cannot merge HLLs of different precision")

// Merge folds other into h. Both sketches must share a precision.
// Allocation-free on matched precisions (see BenchmarkHLLMerge).
func (h *HLL) Merge(other *HLL) error {
	if h.precision != other.precision {
		return ErrPrecisionMismatch
	}
	dst := h.registers
	for i, r := range other.registers {
		if r > dst[i] {
			dst[i] = r
		}
	}
	return nil
}

// Raised calls fn, in ascending index order, for every register of other
// that exceeds h's — exactly the registers Merge(other) would change, and so
// the sparse record of that merge. Both sketches must share a precision.
func (h *HLL) Raised(other *HLL, fn func(index int, rank uint8)) error {
	if h.precision != other.precision {
		return ErrPrecisionMismatch
	}
	for i, r := range other.registers {
		if r > h.registers[i] {
			fn(i, r)
		}
	}
	return nil
}

// Raise lifts one register to at least rank — replaying one entry of a
// Raised record. The index and rank must be ones a sketch of this precision
// can hold.
func (h *HLL) Raise(index int, rank uint8) error {
	if index < 0 || index >= len(h.registers) || int(rank) > 64-int(h.precision)+1 {
		return errors.New("sketch: register update outside the sketch")
	}
	if rank > h.registers[index] {
		h.registers[index] = rank
	}
	return nil
}

// Reset clears the sketch for reuse.
func (h *HLL) Reset() {
	for i := range h.registers {
		h.registers[i] = 0
	}
}

// Precision returns the sketch's configured precision.
func (h *HLL) Precision() int { return int(h.precision) }

// AppendRegisters appends a copy of the register array to dst and returns
// it — the export half of checkpointing a running estimator. Together with
// Precision it captures the sketch's complete state.
func (h *HLL) AppendRegisters(dst []uint8) []uint8 {
	return append(dst, h.registers...)
}

// RestoreHLL rebuilds an estimator from a (precision, registers) pair
// previously captured with Precision/AppendRegisters. The register slice is
// copied, and its length must match 2^precision exactly.
func RestoreHLL(precision int, registers []uint8) (*HLL, error) {
	h, err := NewHLL(precision)
	if err != nil {
		return nil, err
	}
	if len(registers) != len(h.registers) {
		return nil, errors.New("sketch: register count does not match precision")
	}
	copy(h.registers, registers)
	return h, nil
}

func alphaM(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Hash64 is a splitmix64-style finalizer used to hash fixed-width keys
// before sketch insertion.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
