package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// fakeClock advances only when told to, so the calibration arithmetic can be
// checked to the last bit.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func TestCalibrationArithmeticOnFakeClock(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ms := time.Millisecond
	// Kernel runs in order: one before the first phase, then one after each
	// phase of each round (2 phases × 3 rounds).
	kernelTimes := []time.Duration{100 * ms, 110 * ms, 90 * ms, 120 * ms, 80 * ms, 100 * ms, 125 * ms}
	k := 0
	kernel := func() error {
		clk.advance(kernelTimes[k])
		k++
		return nil
	}
	phases := []phase{
		{"work", func(round int) ([]obs, error) {
			d := time.Duration(200+10*round) * ms
			clk.advance(d)
			return []obs{{"work_s", obsTime, d.Seconds()}, {"work_rate", obsRate, 1000}}, nil
		}},
		{"count", func(round int) ([]obs, error) {
			clk.advance(50 * ms)
			return []obs{{"things", obsCount, float64(7 + round)}}, nil
		}},
	}
	samples, kernels, err := runRounds(clk, timedKernel(clk, kernel), phases, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != len(kernelTimes) {
		t.Fatalf("kernel ran %d times, want %d", k, len(kernelTimes))
	}
	nominal := cuNominal.Seconds()
	// Round 0 is discarded. Round 1's "work" sits between kernels 2 and 3,
	// round 2's between kernels 4 and 5: the kernel after one phase is the
	// kernel before the next.
	wantWork := []float64{
		0.210 * nominal / ((0.090 + 0.120) / 2),
		0.220 * nominal / ((0.080 + 0.100) / 2),
	}
	wantRate := []float64{
		1000 * ((0.090 + 0.120) / 2) / nominal,
		1000 * ((0.080 + 0.100) / 2) / nominal,
	}
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples %v, want %d", name, len(got), got, len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*math.Abs(want[i]) {
				t.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	check("work_s", samples["work_s"], wantWork)
	check("work_rate", samples["work_rate"], wantRate)
	check("things", samples["things"], []float64{8, 9})
	check("kernels", kernels, []float64{0.120, 0.080, 0.100, 0.125})
}

func TestRoundsFillTheBudget(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	kernel := func() error { clk.advance(time.Second); return nil }
	rounds := 0
	phases := []phase{{"p", func(int) ([]obs, error) {
		rounds++
		clk.advance(time.Second)
		return []obs{{"p_s", obsTime, 1}}, nil
	}}}
	// Each round is 2 s after a 1 s opening kernel; 10 s fits rounds ending
	// at 3, 5, 7, 9 and an 11 s one that overshoots by no more than half.
	samples, _, err := runRounds(clk, timedKernel(clk, kernel), phases, 10*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 || len(samples["p_s"]) != 4 {
		t.Fatalf("ran %d rounds with %d samples, want 5 and 4", rounds, len(samples["p_s"]))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONIsTheProgramsOwn pins the root BENCHMARK.json to the
// tables in spec.go and checks them against the driver's limits.
func TestBenchmarkJSONIsTheProgramsOwn(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `go run ./tools/perfledger -benchmark-json`")
	}
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != lower && m.Better != higher) {
			t.Errorf("end-to-end %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer %+v is outside the contract", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// tinySizing shrinks every knob so all workloads run both ways in seconds.
func tinySizing() sizing {
	sz := fullSizing()
	sz.scale = func(w workload) float64 { return w.scale / 4 }
	sz.hours = 12
	sz.kernelRecords, sz.kernelPasses = 2000, 1
	sz.setups = 1
	sz.minRounds, sz.traceRounds = 1, 1
	sz.slice = 30 * time.Millisecond
	sz.notifyDirs = 2
	sz.endpointReps = 5
	sz.lagHours, sz.lagEvery = 3, 15*time.Millisecond
	sz.openRate, sz.openFor = 400, 100*time.Millisecond
	return sz
}

// TestSetUpRepeats checks the set-up loop the full-size run uses: every pass
// is timed, with the generation inside it, and only the last
// fixture — here from the benchmark-owned haystack scenario file — survives.
func TestSetUpRepeats(t *testing.T) {
	w, _ := findWorkload("batch-haystack")
	sz := tinySizing()
	sz.setups = 3
	dir := t.TempDir()
	kernel := func() (time.Duration, error) { return 50 * time.Millisecond, nil }
	fx, setups, generations, err := setUpAll(context.Background(), w, sz, 3, dir, kernel)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	if len(setups) != 3 || len(generations) != 3 {
		t.Fatalf("%d set-up times and %d generations, want 3 and 3", len(setups), len(generations))
	}
	for i, g := range generations {
		if g <= 0 || g >= setups[i] {
			t.Errorf("generation %d = %v s of a %v s set-up", i, g, setups[i])
		}
	}
	if fx.rs.Source != "file:haystack@1.json" || fx.digest == 0 || fx.records == 0 {
		t.Errorf("fixture: source %q digest %08x records %d", fx.rs.Source, fx.digest, fx.records)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "setup-*"))
	if len(left) != 1 || left[0] != fx.dir {
		t.Errorf("set-up directories left: %v, want only %s", left, fx.dir)
	}
}

// TestSmokeEveryWorkloadEmitsItsMetrics runs every workload at tiny scale for
// two rounds (warm-up and one measured), untraced and traced, and checks that each run is
// correct and reports exactly the declared metrics with the declared units.
func TestSmokeEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs, label := endToEnd, w.name+"/end-to-end"
			if traced {
				defs, label = perLayer, w.name+"/per-layer"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel() // each run is mostly fixed per-call cost; none asserts a time
				dir := t.TempDir()
				var log bytes.Buffer
				rc := runConfig{
					w: w, sz: tinySizing(), seed: 7, trace: traced,
					workdir: dir, log: &log,
				}
				if traced {
					rc.spans = filepath.Join(dir, "spans.json")
				}
				out, err := run(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				r := out.result
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, log.String())
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, m.Value)
					}
				}
				if n := len(out.samples["setup_s"]); n != rc.sz.setups {
					t.Errorf("%d set-up samples, want %d", n, rc.sz.setups)
				}
				if traced {
					if fi, err := os.Stat(rc.spans); err != nil || fi.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
				} else if n := len(out.samples["infer_s"]); n != rc.sz.minRounds {
					t.Errorf("%d measured rounds, want %d", n, rc.sz.minRounds)
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(left) != 0 {
					t.Errorf("run left %v behind", left)
				}
			})
		}
	}
}
