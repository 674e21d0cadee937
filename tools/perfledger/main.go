// Command perfledger is the repository's benchmark: one command that turns a
// seed into a workload's inputs, drives the system through the public
// functions the cmds call, checks every answer, and prints every metric by
// name with its unit, sample count and quartiles. Every timing except setup_s
// is drift-calibrated against a fixed gunzip kernel (see README.md).
//
// Usage:
//
//	go run ./tools/perfledger -workload batch-paper -seed 1            # end-to-end
//	go run ./tools/perfledger -workload batch-paper -seed 1 -trace 1   # per-layer ledger + span file
//	go run ./tools/perfledger -workload serve-mixed -repeat 10         # repeatability against the bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. A failed check is a failed operation and a non-zero exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxProcs pins the harness: two cores is what the reference runner has, and
// a pinned value keeps a bigger machine from changing what "default workers"
// means.
const maxProcs = 2

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seedArg = flag.String("seed", "1", "seed the workload's inputs are generated from (any 64-bit integer)")
		seconds = flag.Int("seconds", runSeconds, "measurement budget of one run, in seconds")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics and a span file beside the work directory; any other value: the span file's path")
		repeat  = flag.Int("repeat", 0, "run the workload N times on consecutive seeds and compare the spread of each end-to-end metric with its bound")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfledger"), "directory for generated inputs and span files")
		emit    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the program defines it and exit")
	)
	flag.Parse()
	if *emit {
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	seed, err := parseSeed(*seedArg)
	if err != nil {
		fatal(err)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have: %s)", *name, workloadNames()))
	}
	if *repeat > 0 {
		if err := runRepeat(w, seed, *seconds, *repeat, *workdir); err != nil {
			fatal(err)
		}
		return
	}
	runtime.GOMAXPROCS(maxProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	out, err := run(ctx, runConfig{
		w: w, sz: fullSizing(), seed: seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *trace != "0",
		spans:   spanPath(*trace, *workdir, w.name),
		workdir: *workdir,
		log:     os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !out.result.Correct {
		os.Exit(1)
	}
}

// parseSeed accepts any 64-bit integer, signed or not: a negative seed is
// its two's-complement bit pattern.
func parseSeed(s string) (uint64, error) {
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return u, nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("-seed %q is not a 64-bit integer", s)
	}
	return uint64(i), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfledger:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func spanPath(trace, workdir, workload string) string {
	switch trace {
	case "0":
		return ""
	case "1":
		return filepath.Join(workdir, "spans-"+workload+".json")
	}
	return trace
}

// runConfig is one run's inputs.
type runConfig struct {
	w       workload
	sz      sizing
	seed    uint64
	budget  time.Duration // zero: the fewest measured rounds the sizing allows
	trace   bool
	spans   string // span file path (traced run only; empty: not written)
	workdir string
	log     io.Writer
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runOutput struct {
	result  result
	samples map[string][]float64
}

// run performs one benchmark run: set-up, the round loop, checks, report.
func run(ctx context.Context, rc runConfig) (*runOutput, error) {
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workdir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	clk := wallClock{}
	inflate, kernelBytes := newKernel(rc.sz.kernelRecords, rc.sz.kernelPasses)
	kernel := timedKernel(clk, inflate)
	samples := make(map[string][]float64)

	// Set-up, several times over; setup_s is the median.
	fx, setups, generations, err := setUpAll(ctx, rc.w, rc.sz, rc.seed, dir, kernel)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	samples["setup_s"] = setups
	samples["wgen.generate_s"] = generations

	b := &bench{ctx: ctx, fx: fx, led: &ledger{}}
	phases := b.endToEndPhases()
	if rc.trace {
		b.tr = newTracer()
		phases = b.layerPhases()
		for i := range phases {
			inner := phases[i].run
			phases[i].run = func(round int) ([]obs, error) {
				b.tr.sample = round
				return inner(round)
			}
		}
	}
	budget, minRounds := rc.budget, rc.sz.minRounds
	if rc.trace {
		minRounds = rc.sz.traceRounds
	}
	if rc.trace && budget > 0 {
		// The open-loop passes after the rounds run on their own schedule;
		// their time comes out of the same budget.
		budget -= time.Duration(rc.sz.lagHours)*rc.sz.lagEvery + rc.sz.openFor + time.Second
	}
	got, kernels, err := runRounds(clk, kernel, phases, budget, minRounds)
	if err != nil {
		return nil, err
	}
	for k, v := range got {
		samples[k] = v
	}
	samples["bench.calib_s"] = kernels

	defs := endToEnd
	single := make(map[string]float64) // metrics with one value, not samples
	if rc.trace {
		defs = perLayer
		if err := b.finishTrace(samples, single); err != nil {
			return nil, err
		}
	}

	out := &runOutput{samples: samples, result: result{
		Correct:   b.led.failed == 0,
		Attempted: b.led.attempted,
		Failed:    b.led.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}}
	stamp := map[string]any{
		"workload": rc.w.name, "seed": rc.seed, "scenario": fx.rs.Source,
		"configHash": fx.ds.Manifest.ConfigHash, "scale": fx.ds.Scenario.Scale, "hours": fx.ds.Scenario.Hours,
		"followHours": fx.followHours, "records": fx.records,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(), "commit": commit(),
		"kernelGzipBytes": kernelBytes, "cuNominalS": cuNominal.Seconds(), "calibS": median(kernels),
	}
	fmt.Fprintf(rc.log, "perfledger %s", stampLine(stamp))
	fmt.Fprintf(rc.log, "%-34s %-6s %14s %4s %14s %14s\n", "metric", "unit", "median", "n", "q1", "q3")
	for _, d := range defs {
		v, ok := single[d.Name]
		n, q1, q3 := 1, v, v
		if !ok {
			xs := samples[d.Name]
			if len(xs) == 0 {
				return nil, fmt.Errorf("metric %s has no sample", d.Name)
			}
			q1, v, q3 = quartiles(xs)
			n = len(xs)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(rc.log, "%-34s %-6s %14.6g %4d %14.6g %14.6g\n", d.Name, d.Unit, v, n, q1, q3)
	}
	if rc.trace {
		b.tr.printSelfTimes(rc.log)
		if rc.spans != "" {
			if err := b.tr.write(rc.spans, stamp); err != nil {
				return nil, err
			}
			fmt.Fprintf(rc.log, "spans written to %s\n", rc.spans)
		}
	}
	fmt.Fprintf(rc.log, "operations: %d attempted, %d failed\n", b.led.attempted, b.led.failed)
	for _, note := range b.led.notes {
		fmt.Fprintf(rc.log, "FAILED %s\n", note)
	}
	return out, nil
}

// finishTrace completes the traced run: the open-loop passes, the counts, and
// the metrics derived from medians of calibrated samples.
func (b *bench) finishTrace(samples map[string][]float64, single map[string]float64) error {
	fx := b.fx
	lag, err := b.hourLag()
	if err != nil {
		return err
	}
	open, err := b.openLoop()
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{lag, open} {
		for k, v := range m {
			single[k] = v
		}
	}
	gz, err := fx.datasetBytes()
	if err != nil {
		return err
	}
	st := b.streamStats
	b.led.check(st.HoursQuarantined == 0 && st.ShedBatches == 0 && b.shed503 == 0 && b.mixedGeneration == 0,
		"counts that must be zero: %d quarantined, %d shed batches, %d 503s, %d mixed generations", st.HoursQuarantined, st.ShedBatches, b.shed503, b.mixedGeneration)
	med := func(name string) float64 { return median(samples[name]) }
	for k, v := range map[string]float64{
		"wgen.records":                   float64(fx.records),
		"flowtuple.gz_bytes":             float64(gz),
		"flowtuple.records":              float64(fx.records),
		"correlate.inventory_hit_ratio":  1 - float64(fx.res.Correlate.Background.Records)/float64(fx.records),
		"stream.windows_sealed":          float64(st.WindowsSealed),
		"stream.alerts_emitted":          float64(st.AlertsEmitted),
		"stream.alerts_suppressed":       float64(st.AlertsSuppressed),
		"stream.checkpoint_writes":       float64(st.CheckpointWrites),
		"stream.hours_quarantined":       float64(st.HoursQuarantined),
		"stream.shed_batches":            float64(st.ShedBatches),
		"apiserve.mixed_generation":      float64(b.mixedGeneration),
		"apiserve.shed_503":              float64(b.shed503),
		"flowtuple.decode_x_floor":       med("flowtuple.decode_s") / med("flowtuple.gunzip_floor_s"),
		"correlate.self_1w_s":            med("correlate.dataset_1w_s") - med("flowtuple.decode_s"),
		"correlate.x_floor":              med("correlate.dataset_1w_s") / med("flowtuple.gunzip_floor_s"),
		"correlate.parallel_speedup":     med("correlate.dataset_1w_s") / med("correlate.dataset_s"),
		"correlate.sharded2_x_unsharded": med("correlate.sharded2_s") / med("correlate.dataset_s"),
		"stream.x_incremental":           med("stream.drain_mem_s") / med("correlate.incremental_all_s"),
		"stream.durability_share":        (med("stream.drain_durable_s") - med("stream.drain_mem_s")) / med("stream.drain_durable_s"),
		"apiserve.tcp_overhead_us":       med(tcpP50) - med(inprocP50),
		"bench.trace_overhead":           med(tracedInfer) / med(untracedInfer),
	} {
		single[k] = v
	}
	return nil
}

func stampLine(stamp map[string]any) string {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, stamp[k])
	}
	sb.WriteByte('\n')
	return sb.String()
}

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one (a checkout that is not a repository has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
