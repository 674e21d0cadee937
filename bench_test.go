// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the hot paths as plain go test -bench targets for a profile-in-seconds
// dev loop (the repository benchmark is tools/perfledger, not these). Each
// BenchmarkFigN / BenchmarkTableN measures recomputing that artifact from a
// shared correlated dataset (generated once per process at scale 0.01).
package iotscope_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iotscope/internal/analysis"
	"iotscope/internal/apiserve"
	"iotscope/internal/campaign"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/fingerprint"
	"iotscope/internal/flowtuple"
	"iotscope/internal/matview"
	"iotscope/internal/netx"
	"iotscope/internal/notify"
	"iotscope/internal/pipeline"
	"iotscope/internal/report"
	"iotscope/internal/resultstore"
	"iotscope/internal/rng"
	"iotscope/internal/stream"
	"iotscope/internal/threatintel"
	"iotscope/internal/wgen"
)

const (
	benchScale = 0.01
	benchSeed  = 1
)

var (
	benchOnce sync.Once
	benchErr  error
	benchDir  string
	benchDS   *core.Dataset
	benchRes  *core.Results
)

func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

// benchFixture generates and analyzes the shared dataset once.
func benchFixture(b *testing.B) (*core.Dataset, *core.Results) {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "iotscope-bench-*")
		if benchErr != nil {
			return
		}
		cfg := core.DefaultConfig(benchScale, benchSeed)
		benchDS, benchErr = core.Generate(cfg, benchDir)
		if benchErr != nil {
			return
		}
		benchRes, benchErr = benchDS.Analyze(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS, benchRes
}

// renderBench measures one artifact renderer.
func renderBench(b *testing.B, fn func(io.Writer) error) {
	b.Helper()
	_, _ = benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			b.Fatal(err)
		}
		if buf.Len() == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// --- Section III: inference (Figs. 1-3, Tables I-III).

func BenchmarkFig1a(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig1a(w, res.Analyzer) })
}

func BenchmarkFig1b(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig1b(w, res.Analyzer) })
}

func BenchmarkFig2(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig2(w, res.Analyzer) })
}

func BenchmarkFig3(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig3(w, res.Analyzer) })
}

func BenchmarkTable1(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table1(w, res.Analyzer) })
}

func BenchmarkTable2(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table2(w, res.Analyzer) })
}

func BenchmarkTable3(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table3(w, res.Analyzer) })
}

// --- Section IV: characterization (Figs. 4-10, Tables IV-V).

func BenchmarkFig4(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig4(w, res.Analyzer) })
}

func BenchmarkFig5(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig5(w, res.Analyzer) })
}

func BenchmarkTable4(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table4(w, res.Analyzer) })
}

func BenchmarkFig6(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig6(w, res.Analyzer) })
}

func BenchmarkFig7(b *testing.B) {
	ds, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig7(w, res, ds) })
}

func BenchmarkFig8(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig8(w, res.Analyzer) })
}

func BenchmarkFig9(b *testing.B) {
	ds, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig9(w, res, ds) })
}

func BenchmarkTable5(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table5(w, res.Analyzer) })
}

func BenchmarkFig10(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig10(w, res.Analyzer) })
}

// --- Section V: investigation (Fig. 11, Tables VI-VII).

func BenchmarkFig11(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Fig11(w, res) })
}

func BenchmarkTable6(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table6(w, res) })
}

func BenchmarkTable7(b *testing.B) {
	_, res := benchFixture(b)
	renderBench(b, func(w io.Writer) error { return report.Table7(w, res) })
}

// BenchmarkStatTests measures the Sec. IV statistical battery.
func BenchmarkStatTests(b *testing.B) {
	_, res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Analyzer.RunStatTests(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end phases.

// BenchmarkPipelineCorrelate measures the full streaming correlation over
// the 143 hourly files.
func BenchmarkPipelineCorrelate(b *testing.B) {
	ds, _ := benchFixture(b)
	c := correlate.New(ds.Inventory, correlate.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ProcessDataset(context.Background(), ds.Dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineCorrelateSharded sweeps the prefix-partitioned
// correlation across shard counts. shards-1 is the unsharded run plus one
// report (it must sit within noise of BenchmarkPipelineCorrelate); higher
// counts price the routing and the per-hour plane fold recorded in
// docs/PERFORMANCE.md §sharded.
func BenchmarkPipelineCorrelateSharded(b *testing.B) {
	ds, _ := benchFixture(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			c := correlate.New(ds.Inventory, correlate.Options{Shards: shards})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.ProcessDatasetSharded(context.Background(), ds.Dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineStaged measures the same correlation workload driven
// through the staged engine (instrumented stage, report bookkeeping,
// context plumbing). Compared against BenchmarkPipelineCorrelate it bounds
// the engine's per-run overhead — the acceptance gate is <2 % on the
// median.
func BenchmarkPipelineStaged(b *testing.B) {
	ds, _ := benchFixture(b)
	c := correlate.New(ds.Inventory, correlate.Options{})
	stage := pipeline.Func("correlate", func(ctx context.Context) error {
		res, err := c.ProcessDataset(ctx, ds.Dir)
		if err != nil {
			return err
		}
		m := pipeline.Meter(ctx)
		m.RecordsIn = res.Background.Records
		m.RecordsOut = uint64(len(res.Devices))
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.New("bench", stage).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFullReport measures rendering the entire reproduction.
func BenchmarkPipelineFullReport(b *testing.B) {
	ds, res := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := report.WriteAll(&buf, res, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateHour measures dataset synthesis itself (per hour).
func BenchmarkGenerateHour(b *testing.B) {
	sc := wgen.Default(benchScale, benchSeed)
	g, err := wgen.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.EmitHour(i%sc.Hours, func(flowtuple.Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisSummary measures the headline aggregation.
func BenchmarkAnalysisSummary(b *testing.B) {
	_, res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := res.Analyzer.Summary()
		if s.Total == 0 {
			b.Fatal("empty summary")
		}
	}
}

// BenchmarkDiscoveryTimeline measures Fig. 2's aggregation path separate
// from rendering.
func BenchmarkDiscoveryTimeline(b *testing.B) {
	_, res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tl := res.Analyzer.DiscoveryTimeline(); len(tl) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// BenchmarkCDFs measures the Fig. 6 CDF computation.
func BenchmarkCDFs(b *testing.B) {
	_, res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := analysis.CDF(res.Analyzer.ScannerTotals())
		if h.Total() == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkInvestigate measures the Sec. V-A threat correlation.
func BenchmarkInvestigate(b *testing.B) {
	ds, res := benchFixture(b)
	cfg := threatintel.InvestigateConfig{TopPerCategory: 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv, err := threatintel.Investigate(context.Background(), cfg, res.Correlate, ds.Inventory, ds.Threat)
		if err != nil {
			b.Fatal(err)
		}
		if inv.Explored == 0 {
			b.Fatal("empty investigation")
		}
	}
}

// BenchmarkMalwareCorrelate measures the Sec. V-B correlation.
func BenchmarkMalwareCorrelate(b *testing.B) {
	ds, res := benchFixture(b)
	ips := make(map[int]netx.Addr, len(res.Correlate.Devices))
	for id := range res.Correlate.Devices {
		ips[id] = ds.Inventory.At(id).IP
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr, err := ds.Malware.Correlate(context.Background(), ips, ds.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		if len(corr.Hashes) == 0 {
			b.Fatal("empty correlation")
		}
	}
}

// BenchmarkDeviceLookup measures the per-tuple hot path: inventory join.
func BenchmarkDeviceLookup(b *testing.B) {
	ds, _ := benchFixture(b)
	r := rng.New(3)
	addrs := make([]netx.Addr, 4096)
	for i := range addrs {
		if r.Bool(0.5) {
			addrs[i] = ds.Inventory.At(r.Intn(ds.Inventory.Len())).IP
		} else {
			addrs[i] = netx.Addr(r.Uint32())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Inventory.LookupIP(addrs[i&4095])
	}
}

var _ = devicedb.Consumer // exercised indirectly through core types

// --- Extension features (the paper's Discussion / future work).

// BenchmarkCampaignDetect measures botnet-campaign clustering over the
// correlated dataset.
func BenchmarkCampaignDetect(b *testing.B) {
	_, res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaigns, err := campaign.Detect(res.Correlate, campaign.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(campaigns) == 0 {
			b.Fatal("no campaigns")
		}
	}
}

// BenchmarkFingerprintPipeline measures profile extraction plus one-class
// model training over the shared dataset.
func BenchmarkFingerprintPipeline(b *testing.B) {
	ds, res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := fingerprint.NewExtractor(20)
		if err := ex.ProcessDataset(ds.Dir); err != nil {
			b.Fatal(err)
		}
		profiles := ex.Profiles()
		var train []*fingerprint.Profile
		for id := range res.Correlate.Devices {
			if p, ok := profiles[ds.Inventory.At(id).IP]; ok {
				train = append(train, p)
			}
		}
		if _, err := fingerprint.Train(train, fingerprint.TrainConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalIngest measures the near-real-time per-hour path.
func BenchmarkIncrementalIngest(b *testing.B) {
	ds, _ := benchFixture(b)
	c := correlate.New(ds.Inventory, correlate.Options{})
	hours, err := flowtuple.DatasetHours(ds.Dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(hours) == 0 {
			b.StopTimer()
			var err error
			benchInc, err = c.NewIncremental(len(hours))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := benchInc.Ingest(context.Background(), ds.Dir, hours[i%len(hours)]); err != nil {
			b.Fatal(err)
		}
	}
}

var benchInc *correlate.Incremental

// BenchmarkStreamIngest measures the live streaming path end to end: the
// collector drains the shared dataset through the tailer, event-time
// windows, watermark-driven seals, alert derivation (including the
// per-window campaign pass), and the in-memory alert journal.
func BenchmarkStreamIngest(b *testing.B) { benchStreamDrain(b, false) }

// BenchmarkStreamIngestDurable is the same drain as iotwatch
// -checkpoint-dir runs it: every sealed window also commits the checkpoint
// (one fsynced delta frame, or a compaction) and journals its alerts to an
// fsynced on-disk log. The gap to BenchmarkStreamIngest is what durability
// costs.
func BenchmarkStreamIngestDurable(b *testing.B) { benchStreamDrain(b, true) }

func benchStreamDrain(b *testing.B, durable bool) {
	ds, _ := benchFixture(b)
	cfg := core.DefaultConfig(benchScale, benchSeed)
	cfg.Lenient = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scfg := stream.Config{
			Dir:       ds.Dir,
			Poll:      time.Millisecond,
			Drain:     true,
			Campaigns: true,
		}
		var alog *stream.AlertLog
		if durable {
			b.StopTimer()
			state := b.TempDir()
			scfg.CheckpointPath = filepath.Join(state, "checkpoint.irs")
			var err error
			if alog, err = stream.OpenAlertLog(filepath.Join(state, "alerts.jsonl")); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		col, err := stream.New(scfg, func() (*correlate.Incremental, error) {
			return ds.NewIncremental(cfg)
		}, stream.NewHub(alog))
		if err != nil {
			b.Fatal(err)
		}
		if err := col.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		st := col.Stats()
		if st.WindowsSealed == 0 || st.AlertsEmitted == 0 {
			b.Fatalf("drain sealed %d windows, emitted %d alerts", st.WindowsSealed, st.AlertsEmitted)
		}
		if durable {
			if st.CheckpointWrites != uint64(st.WindowsSealed) || st.CheckpointFailures != 0 {
				b.Fatalf("%d commits (%d failed) for %d windows", st.CheckpointWrites, st.CheckpointFailures, st.WindowsSealed)
			}
			if err := alog.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Snapshot result store (docs/SNAPSHOTS.md).

// BenchmarkSnapshotSave measures persisting the analyzed correlation state
// as a result store artifact — the iotinfer -save stage.
func BenchmarkSnapshotSave(b *testing.B) {
	_, res := benchFixture(b)
	path := filepath.Join(b.TempDir(), "snapshot.irs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.SaveSnapshot(path, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures restoring analyzed correlation state from
// a result store artifact, validated against the dataset — the iotserve
// -snapshot cold-start path. The acceptance gate is a ≥10x win over
// BenchmarkSnapshotAnalyze, the re-analysis a valid store replaces.
func BenchmarkSnapshotLoad(b *testing.B) {
	ds, res := benchFixture(b)
	path := filepath.Join(b.TempDir(), "snapshot.irs")
	if err := core.SaveSnapshot(path, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := ds.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(loaded.Devices) != len(res.Correlate.Devices) {
			b.Fatal("short load")
		}
	}
}

// BenchmarkColdStart measures what iotserve -snapshot pays before it can
// answer: core.LoadSnapshotOpts over the reference fixture and its saved
// store, then apiserve.New. The store is read while the dataset's tables
// load, each on its own goroutine, and the views build as concurrent tasks,
// so run it with -cpu 1,2 (docs/PERFORMANCE.md §Snapshot load vs
// re-analysis).
func BenchmarkColdStart(b *testing.B) {
	ds, res := benchFixture(b)
	path := filepath.Join(b.TempDir(), "snapshot.irs")
	if err := core.SaveSnapshot(path, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds2, loaded, prov, _, err := core.LoadSnapshotOpts(context.Background(), ds.Dir, core.LoadOptions{Store: path, RequireStore: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := apiserve.New(ds2, loaded, []string{"bench"}); err != nil {
			b.Fatal(err)
		}
		if prov.Source != "store" || loaded.Views.Digest() != res.Views.Digest() {
			b.Fatalf("loaded from %q with digest %08x, want the store and %08x", prov.Source, loaded.Views.Digest(), res.Views.Digest())
		}
	}
}

// BenchmarkSnapshotAnalyze is the baseline a valid store short-circuits
// in core.LoadSnapshotOpts: verifying every raw hour file and re-deriving
// the correlation state from them (the verify and correlate stages both
// skip when a store loads).
func BenchmarkSnapshotAnalyze(b *testing.B) {
	ds, _ := benchFixture(b)
	c := correlate.New(ds.Inventory, correlate.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.VerifyHours(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, err := c.ProcessDataset(context.Background(), ds.Dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatviewBuild measures the materialize stage every analysis, cold
// start and reload ends with, whole and by its port-table-sized parts, so
// the next profile of the layer is one command (docs/PERFORMANCE.md §Build
// cost model): build as an analysis runs it (digest computed), build-stored
// as a cold start and a reload run it (digest read off the store), the
// content digest (Result.Export plus the store encoding), the per-ISP
// bundles (the port → device transpose), their rendering into the
// /v1/reports body, the UDP table (walked, then radix-sorted by packets) and
// campaign detection. The build's terms run as concurrent tasks, so run it
// with -cpu 1,2.
func BenchmarkMatviewBuild(b *testing.B) {
	ds, res := benchFixture(b)
	src := matview.Sources{
		Result: res.Correlate, Analyzer: res.Analyzer, Summary: res.Summary,
		StatTests: res.StatTests, Malware: res.Malware,
		Inventory: ds.Inventory, Registry: ds.Registry, Threat: ds.Threat,
		MalwareDB: ds.Malware, Catalog: ds.Catalog,
	}
	stored := src
	stored.Digest = res.Views.Digest()
	bundleSrc := notify.Sources{
		Result: res.Correlate, Inventory: ds.Inventory, Registry: ds.Registry,
		Threat: ds.Threat, Malware: ds.Malware, Catalog: ds.Catalog,
	}
	bundles := notify.BuildBundles(bundleSrc, notify.DefaultConfig())
	for _, part := range []struct {
		name string
		run  func() error
	}{
		{"build", func() error { _, err := matview.Build(src); return err }},
		{"build-stored", func() error { _, err := matview.Build(stored); return err }},
		{"digest", func() error { _, err := resultstore.DigestResult(res.Correlate); return err }},
		{"bundles", func() error {
			if len(notify.BuildBundles(bundleSrc, notify.DefaultConfig())) == 0 {
				return fmt.Errorf("no bundles")
			}
			return nil
		}},
		{"reports", func() error { _, err := matview.RenderReports(bundles); return err }},
		{"udp", func() error {
			if len(res.Analyzer.TopUDPPorts(0)) != len(res.Correlate.UDPPorts) {
				return fmt.Errorf("short UDP table")
			}
			return nil
		}},
		{"campaigns", func() error { _, err := campaign.Detect(res.Correlate, campaign.DefaultConfig()); return err }},
	} {
		b.Run(part.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := part.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen measures core.Open on a batch-paper-sized dataset (every
// analysis, cold start and reload begins with one): index with the malware
// report index beside the XML feed, xml with it removed before each open, so
// the feed is parsed and the index rewritten (docs/PERFORMANCE.md §opening a
// dataset). The acceptance gate is index ≤ 0.40× xml.
func BenchmarkOpen(b *testing.B) {
	cfg := core.DefaultConfig(0.008, 1)
	cfg.Hours = 2
	ds, err := core.Generate(cfg, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"index", "xml"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "xml" {
					if err := os.Remove(filepath.Join(ds.Dir, core.MalwareIndexFile)); err != nil {
						b.Fatal(err)
					}
				}
				opened, err := core.Open(ds.Dir)
				if err != nil {
					b.Fatal(err)
				}
				if (opened.MalwareSource == "index") != (mode == "index") {
					b.Fatalf("malware database arrived by %s", opened.MalwareSource)
				}
			}
		})
	}
}

// BenchmarkGenerateScale sweeps dataset synthesis throughput across scales
// (records generated per rendered hour grow linearly with scale).
func BenchmarkGenerateScale(b *testing.B) {
	for _, scale := range []float64{0.002, 0.005, 0.01} {
		b.Run(fmt.Sprintf("scale-%v", scale), func(b *testing.B) {
			sc := wgen.Default(scale, 1)
			g, err := wgen.New(sc)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.EmitHour(i%sc.Hours, func(flowtuple.Record) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerate is the scenario-registry acceptance path: resolve the
// bundled paper-default scenario, render a short window, and stamp the
// dataset with its provenance files. records/s is the generator's
// throughput over the whole of that, at this run's GOMAXPROCS (hours render
// on that many workers; compare -cpu 1 with the default).
func BenchmarkGenerate(b *testing.B) {
	root := b.TempDir()
	cfg := core.DefaultConfig(0.002, 1)
	cfg.Hours = 4
	var records uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run-%d", i))
		ds, err := core.Generate(cfg, dir)
		if err != nil {
			b.Fatal(err)
		}
		records += ds.GenStats.Collector.RecordsWritten
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
