package main

import (
	"encoding/json"
	"time"
)

// workload is one set of inputs. Every workload runs every phase (the
// acceptance driver wants every end-to-end metric from every run); what
// differs is where the input puts the work. See README.md for the rationale.
type workload struct {
	name string
	why  string
	// scenario is the bundled scenario the inputs are generated from.
	scenario string
	// bgMult > 1 derives a benchmark-owned scenario file at set-up by
	// multiplying the background actor's volume and source population.
	bgMult float64
	scale  float64
	// followHours is how many leading hours the stream phase drains
	// (0 = the whole capture window).
	followHours int
}

var workloads = []workload{
	{
		name:        "batch-paper",
		why:         "the paper's own capture: 7 in 10 records hit the inventory, so accumulate and matview weigh most in infer and coldstart",
		scenario:    "paper-default@1",
		scale:       0.008,
		followHours: 32,
	},
	{
		name:        "batch-haystack",
		why:         "a real darknet's shape: background x15, 9 in 10 records miss the inventory, so gunzip, decode and the join's miss path do the work",
		scenario:    "paper-default@1",
		bgMult:      15,
		scale:       0.0015,
		followHours: 48,
	},
	{
		name:     "stream-follow",
		why:      "all 143 hourly windows followed durably at small scale: per-window Result, Detect, checkpoint and journal fsync dominate",
		scenario: "paper-default@1",
		scale:    0.003,
	},
	{
		name:        "serve-mixed",
		why:         "mirai-wave has the largest device index per record: snapshot load, matview build and HTTP carry the round, decode little",
		scenario:    "mirai-wave@1",
		scale:       0.016,
		followHours: 24,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizing holds every size knob of a run, so the smoke test can run the same
// code on a few hours of data in milliseconds.
type sizing struct {
	scale         func(w workload) float64
	hours         int // capture-window override (0 = the scenario's own)
	kernelRecords int
	kernelPasses  int
	setups        int           // full set-ups per run; setup_s is their median
	slice         time.Duration // closed-loop read slice
	notifyDirs    int           // fresh queue dirs per notify_queue_s sample
	minRounds     int           // fewest measured rounds, whatever the budget
	traceRounds   int           // the same for the traced run
	endpointReps  int           // in-process calls per endpoint per sample
	lagHours      int           // open-loop landing: hours landed...
	lagEvery      time.Duration // ...one per this interval
	openRate      int           // open-loop HTTP: requests per second...
	openFor       time.Duration // ...for this long
}

func fullSizing() sizing {
	return sizing{
		scale:         func(w workload) float64 { return w.scale },
		kernelRecords: kernelRecords,
		kernelPasses:  kernelPasses,
		setups:        3,
		slice:         500 * time.Millisecond,
		notifyDirs:    8,
		minRounds:     2,
		traceRounds:   3,
		endpointReps:  200,
		lagHours:      20,
		lagEvery:      100 * time.Millisecond,
		openRate:      500,
		openFor:       3 * time.Second,
	}
}

// metricDef declares one metric: the name later issues refer to, its unit,
// which direction is better, and — end-to-end only — the share of the
// parent's median by which it may worsen before a change is a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// The bounds are what this runner can resolve in the 24 s a run may measure:
// about three times the spread ten runs on ten seeds showed (README.md has
// the table), not the 0.08–0.10 the issue hoped for.
var endToEnd = []metricDef{
	{"infer_s", "s", lower, 0.20},
	{"infer_1core_s", "s", lower, 0.20},
	{"coldstart_s", "s", lower, 0.20},
	{"notify_queue_s", "s", lower, 0.25},
	{"stream_drain_s", "s", lower, 0.25},
	{"serve_rps", "req/s", higher, 0.20},
	{"serve_p50_us", "us", lower, 0.20},
	{"serve_p99_us", "us", lower, 0.25},
	{"reload_s", "s", lower, 0.20},
	{"setup_s", "s", lower, 0.25},
}

// endpoints are the in-process per-endpoint layer metrics, in mix order.
var endpoints = []string{"summary", "devices_page", "device", "ports_udp", "spikes", "signatures", "notmodified", "reports"}

var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "wgen.generate_s", Unit: "s", Better: lower},
		{Name: "wgen.records", Unit: "count", Better: higher},
		{Name: "flowtuple.gz_bytes", Unit: "B", Better: lower},
		{Name: "flowtuple.records", Unit: "count", Better: higher},
		{Name: "flowtuple.gunzip_floor_s", Unit: "s", Better: lower},
		{Name: "flowtuple.decode_s", Unit: "s", Better: lower},
		{Name: "flowtuple.decode_x_floor", Unit: "x", Better: lower},
		{Name: "flowtuple.verify_s", Unit: "s", Better: lower},
		{Name: "devicedb.lookup_ns", Unit: "ns", Better: lower},
		{Name: "core.open_s", Unit: "s", Better: lower},
		{Name: "correlate.dataset_1w_s", Unit: "s", Better: lower},
		{Name: "correlate.dataset_s", Unit: "s", Better: lower},
		{Name: "correlate.self_1w_s", Unit: "s", Better: lower},
		{Name: "correlate.x_floor", Unit: "x", Better: lower},
		{Name: "correlate.parallel_speedup", Unit: "x", Better: higher},
		{Name: "correlate.sharded2_s", Unit: "s", Better: lower},
		{Name: "correlate.sharded2_x_unsharded", Unit: "x", Better: lower},
		{Name: "correlate.inventory_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "correlate.incremental_all_s", Unit: "s", Better: lower},
		{Name: "correlate.result_s", Unit: "s", Better: lower},
		{Name: "campaign.detect_s", Unit: "s", Better: lower},
		{Name: "core.downstream_s", Unit: "s", Better: lower},
		{Name: "matview.build_s", Unit: "s", Better: lower},
		{Name: "matview.static_bytes", Unit: "B", Better: lower},
		{Name: "resultstore.save_s", Unit: "s", Better: lower},
		{Name: "resultstore.load_s", Unit: "s", Better: lower},
		{Name: "resultstore.snapshot_bytes", Unit: "B", Better: lower},
		{Name: "resultstore.checkpoint_write_s", Unit: "s", Better: lower},
		{Name: "resultstore.checkpoint_bytes", Unit: "B", Better: lower},
		{Name: "stream.drain_durable_s", Unit: "s", Better: lower},
		{Name: "stream.drain_mem_s", Unit: "s", Better: lower},
		{Name: "stream.x_incremental", Unit: "x", Better: lower},
		{Name: "stream.durability_share", Unit: "ratio", Better: lower},
		{Name: "stream.alertlog_append_us", Unit: "us", Better: lower},
		{Name: "stream.windows_sealed", Unit: "count", Better: higher},
		{Name: "stream.alerts_emitted", Unit: "count", Better: higher},
		{Name: "stream.alerts_suppressed", Unit: "count", Better: lower},
		{Name: "stream.checkpoint_writes", Unit: "count", Better: lower},
		{Name: "stream.hours_quarantined", Unit: "count", Better: lower},
		{Name: "stream.shed_batches", Unit: "count", Better: lower},
		{Name: "stream.hour_lag_p50_ms", Unit: "ms", Better: lower},
		{Name: "stream.hour_lag_p90_ms", Unit: "ms", Better: lower},
		{Name: "stream.gen_late_max_ms", Unit: "ms", Better: lower},
	}
	for _, ep := range endpoints {
		m = append(m,
			metricDef{Name: "apiserve." + ep + "_us", Unit: "us", Better: lower},
			metricDef{Name: "apiserve." + ep + "_bytes", Unit: "B", Better: lower})
	}
	return append(m,
		metricDef{Name: "apiserve.tcp_overhead_us", Unit: "us", Better: lower},
		metricDef{Name: "apiserve.rps_during_reload", Unit: "req/s", Better: higher},
		metricDef{Name: "apiserve.mixed_generation", Unit: "count", Better: lower},
		metricDef{Name: "apiserve.shed_503", Unit: "count", Better: lower},
		metricDef{Name: "apiserve.open500_p50_us", Unit: "us", Better: lower},
		metricDef{Name: "apiserve.open500_p99_us", Unit: "us", Better: lower},
		metricDef{Name: "apiserve.open500_late_max_ms", Unit: "ms", Better: lower},
		metricDef{Name: "notify.build_bundles_s", Unit: "s", Better: lower},
		metricDef{Name: "abusecontact.resolve_s", Unit: "s", Better: lower},
		metricDef{Name: "notify.render_s", Unit: "s", Better: lower},
		metricDef{Name: "outqueue.enqueue_s", Unit: "s", Better: lower},
		metricDef{Name: "outqueue.enqueue_rerun_s", Unit: "s", Better: lower},
		metricDef{Name: "outqueue.drain_s", Unit: "s", Better: lower},
		metricDef{Name: "outqueue.complaints", Unit: "count", Better: higher},
		metricDef{Name: "bench.calib_s", Unit: "s", Better: lower},
		metricDef{Name: "bench.trace_overhead", Unit: "x", Better: lower},
	)
}()

// runSeconds is how long the driver asks one run to measure.
const runSeconds = 24

// benchmarkJSON renders the root BENCHMARK.json from the tables above, so the
// file and the program cannot drift apart (the smoke test compares them).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "tools/perfledger/run.sh"},
		Paths:      []string{"tools/perfledger"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
