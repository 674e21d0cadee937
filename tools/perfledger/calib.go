package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// cuNominal is the calibration unit: every calibrated value reads as "on a
// machine where the calibration kernel takes exactly this long". The kernel is
// sized to take about this long on the reference 2-core runner, so calibrated
// and raw values have the same magnitude there.
const cuNominal = 100 * time.Millisecond

// The real kernel inflates a kernelRecords-record buffer kernelPasses times
// (≈3 MB of gzip per pass, ≈0.1 s in all on the reference runner). Passes
// keep building the buffer, which every run pays for, several times cheaper
// than the kernel itself.
const (
	kernelRecords = 250_000
	kernelPasses  = 3
)

// clock is the time source of the measurement loop; tests substitute a fake
// to check the calibration arithmetic exactly.
type clock interface{ Now() time.Time }

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// newKernel builds the calibration kernel: stdlib gzip inflate of one fixed
// in-memory buffer to io.Discard, on the calling goroutine, touching no
// repository code. The buffer comes from a constant seed — never from -seed —
// so every run of every workload divides by the same work. Records imitate
// flowtuple entropy: 25-byte tuples with few distinct sources and ports.
func newKernel(records, passes int) (kernel func() error, gzipBytes int) {
	r := rand.New(rand.NewSource(0x1075c09e))
	srcs := make([]uint32, 4096)
	for i := range srcs {
		srcs[i] = r.Uint32()
	}
	ports := []uint16{23, 2323, 80, 8080, 22, 445, 5555, 7547, 37215, 52869, 1900, 53, 123, 161}
	var raw bytes.Buffer
	zw := gzip.NewWriter(&raw)
	var rec [25]byte
	for i := 0; i < records; i++ {
		binary.BigEndian.PutUint32(rec[0:], srcs[r.Intn(len(srcs))])
		binary.BigEndian.PutUint32(rec[4:], 0x2c000000|r.Uint32()>>8)
		binary.BigEndian.PutUint16(rec[8:], uint16(32768+r.Intn(28000)))
		binary.BigEndian.PutUint16(rec[10:], ports[r.Intn(len(ports))])
		rec[12] = 6
		rec[13] = 2
		rec[14] = byte(40 + r.Intn(24))
		binary.BigEndian.PutUint16(rec[15:], 40)
		binary.BigEndian.PutUint32(rec[17:], uint32(1+r.Intn(3)))
		zw.Write(rec[:]) // a bytes.Buffer cannot fail
	}
	zw.Close()
	data := raw.Bytes()
	var zr gzip.Reader
	return func() error {
		for p := 0; p < passes; p++ {
			if err := zr.Reset(bytes.NewReader(data)); err != nil {
				return err
			}
			n, err := io.Copy(io.Discard, &zr)
			if err != nil {
				return err
			}
			if n != int64(records)*int64(len(rec)) {
				return fmt.Errorf("calibration kernel inflated %d bytes, want %d", n, records*len(rec))
			}
		}
		return nil
	}, len(data)
}

// timedKernel wraps the kernel so that each call reports how long it took.
// A collection comes first, outside the timing: the previous phase's garbage
// is neither the kernel's nor the next phase's to collect.
func timedKernel(clk clock, kernel func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		runtime.GC()
		t0 := clk.Now()
		err := kernel()
		return clk.Now().Sub(t0), err
	}
}

// obsKind says how an observation scales with machine speed.
type obsKind uint8

const (
	obsTime  obsKind = iota // a duration: calibrated = raw × nominal ÷ kernel
	obsRate                 // a rate: calibrated = raw × kernel ÷ nominal
	obsCount                // a count or size: never calibrated
)

// obs is one raw observation a phase hands back for a named metric.
type obs struct {
	metric string
	kind   obsKind
	value  float64
}

// calibrate applies the measurement rule to one raw observation bracketed by
// the kernel runs immediately before and after its phase.
func calibrate(o obs, before, after time.Duration) float64 {
	k := (before.Seconds() + after.Seconds()) / 2
	switch o.kind {
	case obsTime:
		return o.value * cuNominal.Seconds() / k
	case obsRate:
		return o.value * k / cuNominal.Seconds()
	}
	return o.value
}

// phase is one step of a round. run times its own work, so that its checks
// stay outside the timed region, and returns raw observations.
type phase struct {
	name string
	run  func(round int) ([]obs, error)
}

// runRounds executes the bracketing rule: each round runs every phase once, in
// order, with one kernel run between consecutive phases — the kernel after
// phase k is the kernel before phase k+1, across round boundaries too. Round
// 0 is warm-up and discarded. It runs until budget is spent (at least
// minRounds measured rounds; exactly minRounds when budget is zero) and
// returns the calibrated samples per metric plus every kernel time.
func runRounds(clk clock, timeKernel func() (time.Duration, error), phases []phase, budget time.Duration, minRounds int) (map[string][]float64, []float64, error) {
	samples := make(map[string][]float64)
	var kernels []float64
	start := clk.Now()
	before, err := timeKernel()
	if err != nil {
		return nil, nil, err
	}
	var roundDur time.Duration
	for round := 0; ; round++ {
		// Stop when the next round would overshoot the budget by more than
		// it undershoots now, so runs measure for the budget on average.
		if round > minRounds && clk.Now().Sub(start)+roundDur/2 > budget {
			break
		}
		roundStart := clk.Now()
		for _, p := range phases {
			got, err := p.run(round)
			if err != nil {
				return nil, nil, fmt.Errorf("round %d phase %s: %w", round, p.name, err)
			}
			after, err := timeKernel()
			if err != nil {
				return nil, nil, err
			}
			if round > 0 {
				for _, o := range got {
					samples[o.metric] = append(samples[o.metric], calibrate(o, before, after))
				}
				kernels = append(kernels, after.Seconds())
			}
			before = after
		}
		roundDur = clk.Now().Sub(roundStart)
	}
	return samples, kernels, nil
}

// quartiles returns q1, median, q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), which is what the acceptance driver computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
