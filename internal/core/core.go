// Package core is the library's public surface: it wires the substrates
// into the paper's end-to-end pipeline.
//
//	cfg := core.DefaultConfig(0.02, 42)   // scale, seed
//	ds, _ := core.Generate(cfg, dir)       // synthesize the world + telescope capture
//	res, _ := ds.Analyze(cfg)              // infer, characterize, investigate
//
// Generate builds the synthetic Internet (registry, inventory), renders the
// 143-hour telescope capture, and plants the threat-intelligence and
// malware databases. Analyze replays the paper's methodology over the
// dataset: correlation-based inference of compromised IoT devices
// (Sec. III), traffic characterization (Sec. IV), and maliciousness
// investigation (Sec. V). Every table and figure of the evaluation is
// reachable from the returned Results.
package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"iotscope/internal/analysis"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/geo"
	"iotscope/internal/malwaredb"
	"iotscope/internal/matview"
	"iotscope/internal/netx"
	"iotscope/internal/pipeline"
	"iotscope/internal/rng"
	"iotscope/internal/scenario"
	"iotscope/internal/threatintel"
	"iotscope/internal/wal"
	"iotscope/internal/wgen"
)

// Dataset file names.
const (
	ScenarioFile       = "scenario.json"
	InventoryFile      = "inventory.jsonl"
	ThreatFile         = "threat-events.jsonl"
	MalwareReportsFile = "malware-reports.xml"
	// MalwareIndexFile is the parsed corpus kept beside the XML feed; see
	// malwaredb.LoadReportsFile. Deleting it costs the next Open one parse.
	MalwareIndexFile   = "malware-reports.idx"
	MalwareCatalogFile = "malware-catalog.jsonl"
	TruthFile          = "truth.json"
)

// Config tunes generation and analysis.
type Config struct {
	// Scale multiplies populations and aggregate volumes (1.0 = paper
	// magnitudes; experiments default to 0.02).
	Scale float64
	// Seed drives every stochastic choice; identical seeds reproduce
	// byte-identical datasets.
	Seed uint64
	// Hours overrides the 143-hour window (0 keeps it).
	Hours int
	// Workers bounds concurrent hour-file processing during analysis.
	Workers int
	// ExploreTopPerCategory is the full-scale Sec. V-A explored-device cut
	// (scaled like everything else; the paper used 4,000 per realm).
	ExploreTopPerCategory int
	// Lenient selects the lenient ingestion fault policy: unreadable hour
	// files are quarantined and the rest of the dataset still analyzed.
	// This is the shared knob batch (iotinfer) and watch (iotwatch) modes
	// both derive their correlator from, so the policies cannot drift.
	Lenient bool
	// Shards routes each hour's records by source-IP prefix to this many
	// accumulation planes (power of two; 0 or 1 is one plane). The result
	// is byte-identical either way.
	Shards int
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig(scale float64, seed uint64) Config {
	return Config{
		Scale:                 scale,
		Seed:                  seed,
		ExploreTopPerCategory: 4000,
	}
}

// Dataset is a generated (or opened) on-disk world.
type Dataset struct {
	Dir       string
	Scenario  wgen.Scenario
	Inventory *devicedb.Inventory
	Registry  *geo.Registry
	Threat    *threatintel.Repository
	Malware   *malwaredb.DB
	Catalog   *malwaredb.Catalog

	// MalwareSource says how Open came by Malware: "index", or "xml (...)"
	// with what was wrong with the index and whether it was rewritten
	// (empty when Generated). The database is the same either way.
	MalwareSource string

	// Truth is the planted ground truth; the analysis never reads it, it
	// exists for validation tooling and the examples.
	Truth wgen.GroundTruth

	// GenStats is populated by Generate (zero when Opened).
	GenStats wgen.RunStats

	// Manifest is the dataset's run provenance (scenario name and version,
	// resolved seed/scale/hours, config hash, generator versions), verified
	// on Open. Nil only for legacy datasets predating provenance stamping.
	Manifest *scenario.RunManifest
}

// Generate synthesizes a complete dataset into dir from the bundled
// paper-default scenario — the library form of the paper's evaluation run.
func Generate(cfg Config, dir string) (*Dataset, error) {
	rs, err := scenario.Resolve(scenario.DefaultName, scenario.Options{
		Scale: cfg.Scale,
		Seed:  cfg.Seed,
		Hours: cfg.Hours,
	})
	if err != nil {
		return nil, err
	}
	return GenerateScenario(cfg, rs, dir)
}

// GenerateScenario synthesizes a complete dataset into dir from a resolved
// scenario, stamping it with the provenance files (scenario-config.json and
// run.json) that Open verifies.
func GenerateScenario(cfg Config, rs *scenario.Resolved, dir string) (*Dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sc := rs.Scenario
	gen, err := wgen.New(sc)
	if err != nil {
		return nil, err
	}
	// Run takes a context because it renders hours on worker goroutines.
	// This signature has none to give it: tools/perfledger, which no PR but
	// a benchmark one may edit, calls GenerateScenario as it is.
	stats, err := gen.Run(context.Background(), dir)
	if err != nil {
		return nil, fmt.Errorf("core: render traffic: %w", err)
	}

	ds := &Dataset{
		Dir:       dir,
		Scenario:  sc,
		Inventory: gen.Inventory(),
		Registry:  gen.Registry(),
		Truth:     gen.Truth(),
		GenStats:  stats,
		Manifest:  rs.Manifest(),
	}

	// Threat intelligence and malware corpora, biased by ground truth.
	noise := noisePool(gen.Registry(), gen.Inventory(), cfg.Seed, 4096)
	ds.Threat, err = threatintel.Generate(
		threatintel.DefaultGenConfig(), gen.Truth(), gen.Inventory(), noise, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ds.Malware, ds.Catalog, _, err = malwaredb.Generate(
		malwaredb.DefaultGenConfig(), gen.Truth(), gen.Inventory(), noise, cfg.Seed)
	if err != nil {
		return nil, err
	}

	if err := ds.persist(nil); err != nil {
		return nil, err
	}
	// Provenance goes last: run.json is the commit record, so a dataset
	// carrying it is complete.
	if err := scenario.WriteRunFiles(dir, rs); err != nil {
		return nil, fmt.Errorf("core: stamp provenance: %w", err)
	}
	return ds, nil
}

// noisePool draws deterministic non-inventory addresses for the intel and
// malware generators.
func noisePool(reg *geo.Registry, inv *devicedb.Inventory, seed uint64, n int) []netx.Addr {
	r := rng.New(seed).Derive("core-noise")
	pool := make([]netx.Addr, 0, n)
	nISPs := len(reg.ISPs)
	for len(pool) < n {
		a := reg.RandomAddr(r, r.Intn(nISPs))
		if _, isIoT := inv.LookupIP(a); isIoT {
			continue
		}
		pool = append(pool, a)
	}
	return pool
}

// persist writes the dataset's files other than the hour files, each an
// atomic replace through fsys (nil: the os package): a crash leaves a file
// as it was or complete, never torn under a run.json that vouches for it.
func (ds *Dataset) persist(fsys wal.FS) error {
	if err := writeJSON(fsys, filepath.Join(ds.Dir, ScenarioFile), ds.Scenario); err != nil {
		return err
	}
	if err := writeSaved(fsys, filepath.Join(ds.Dir, InventoryFile), ds.Inventory.Save); err != nil {
		return err
	}
	if err := writeSaved(fsys, filepath.Join(ds.Dir, ThreatFile), ds.Threat.Save); err != nil {
		return err
	}
	if err := ds.Malware.SaveReportsFile(fsys, filepath.Join(ds.Dir, MalwareReportsFile)); err != nil {
		return err
	}
	if err := writeSaved(fsys, filepath.Join(ds.Dir, MalwareCatalogFile), ds.Catalog.Save); err != nil {
		return err
	}
	return writeJSON(fsys, filepath.Join(ds.Dir, TruthFile), ds.Truth)
}

func writeJSON(fsys wal.FS, path string, v any) error {
	return writeSaved(fsys, path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// writeSaved renders a document into memory and replaces path with it.
func writeSaved(fsys wal.FS, path string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	return wal.WriteAtomic(fsys, path, buf.Bytes())
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

// Open loads a previously generated dataset.
func Open(dir string) (*Dataset, error) {
	ds := &Dataset{Dir: dir}
	if err := readJSON(filepath.Join(dir, ScenarioFile), &ds.Scenario); err != nil {
		return nil, fmt.Errorf("core: read scenario: %w", err)
	}
	var err error
	ds.Registry, err = geo.Build(ds.Scenario.Geo, ds.Scenario.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild registry: %w", err)
	}
	ds.Inventory, err = devicedb.LoadFile(filepath.Join(dir, InventoryFile))
	if err != nil {
		return nil, fmt.Errorf("core: load inventory: %w", err)
	}
	ds.Threat, err = threatintel.LoadFile(filepath.Join(dir, ThreatFile))
	if err != nil {
		return nil, fmt.Errorf("core: load threat repo: %w", err)
	}
	ds.Malware, ds.MalwareSource, err = malwaredb.LoadReportsFile(filepath.Join(dir, MalwareReportsFile))
	if err != nil {
		return nil, fmt.Errorf("core: load malware reports: %w", err)
	}
	ds.Catalog, err = malwaredb.LoadCatalogFile(filepath.Join(dir, MalwareCatalogFile))
	if err != nil {
		return nil, fmt.Errorf("core: load malware catalog: %w", err)
	}
	if err := readJSON(filepath.Join(dir, TruthFile), &ds.Truth); err != nil {
		return nil, fmt.Errorf("core: load truth: %w", err)
	}
	m, err := scenario.VerifyDir(dir)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Legacy dataset from before provenance stamping: usable, unstamped.
	case err != nil:
		return nil, fmt.Errorf("core: verify provenance: %w", err)
	default:
		// The manifest must also agree with the dataset it travels with.
		if m.Seed != ds.Scenario.Seed || m.Scale != ds.Scenario.Scale || m.Hours != ds.Scenario.Hours {
			return nil, fmt.Errorf("core: verify provenance: %w: manifest run inputs (seed=%d scale=%v hours=%d) disagree with scenario (seed=%d scale=%v hours=%d)",
				scenario.ErrManifestMismatch, m.Seed, m.Scale, m.Hours,
				ds.Scenario.Seed, ds.Scenario.Scale, ds.Scenario.Hours)
		}
		ds.Manifest = m
	}
	return ds, nil
}

// Results bundles the full analysis output. The Analyzer gives access to
// every per-table/per-figure method; the investigation fields cover Sec. V.
type Results struct {
	Analyzer  *analysis.Analyzer
	Correlate *correlate.Result
	Summary   analysis.CompromisedSummary
	StatTests analysis.StatTests
	Threat    threatintel.Investigation
	Malware   malwaredb.Correlation

	// Views is the materialized read side built by the materialize stage:
	// every aggregate the serving layer answers from, precomputed once per
	// analysis. Excluded from JSON because it is derived state — two
	// Results are equivalent iff the fields above are.
	Views *matview.Views `json:"-"`

	// storeDigest is resultstore.DigestResult(Correlate) when Correlate came
	// off a result store, whose loader reads it from the file's bytes; zero
	// (the analyze path) leaves it to matview.Build.
	storeDigest uint32
}

// Stage names of the analysis pipeline, in run order. Every tool that
// drives the engine reports these names in its -stage-report output.
const (
	StageCorrelate    = "correlate"
	StageCharacterize = "characterize"
	StageStatTests    = "stat-tests"
	StageThreatIntel  = "threat-intel"
	StageMalware      = "malware"
	StageMaterialize  = "materialize"
)

// Stage names of the snapshot-load pipeline (see LoadSnapshotOpts), plus the
// store stages iotinfer -save and -snapshot loading add around it.
const (
	StageOpen      = "open"
	StageLoadStore = "load-store"
	StageVerify    = "verify"
	StageLoad      = "analyze"
	StageSaveStore = "save-store"
)

// CorrelatorOptions derives the correlate.Options for this configuration —
// the single place batch, watch, and serving modes get their correlator
// wiring from.
func (cfg Config) CorrelatorOptions() correlate.Options {
	opts := correlate.Options{
		Workers: cfg.Workers,
		Shards:  cfg.Shards,
	}
	if cfg.Lenient {
		opts.FaultPolicy = correlate.Lenient
	}
	return opts
}

// NewIncremental returns an incremental correlator over the dataset's
// inventory, sized for the scenario's hour window and configured exactly
// like batch analysis (see Config.CorrelatorOptions).
func (ds *Dataset) NewIncremental(cfg Config) (*correlate.Incremental, error) {
	maxHours := ds.Scenario.Hours
	if maxHours <= 0 {
		maxHours = 24 * 365
	}
	return correlate.New(ds.Inventory, cfg.CorrelatorOptions()).NewIncremental(maxHours)
}

// classifyIngestErr refines the stage's error class with the correlate
// fault taxonomy; context errors keep the engine's own classification.
func classifyIngestErr(m *pipeline.StageMetrics, err error) {
	switch {
	case err == nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
	case correlate.IsRetryable(err):
		m.ErrorClass = "retryable"
	case errors.Is(err, flowtuple.ErrBadFormat):
		m.ErrorClass = "corrupt"
	}
}

// AnalysisStages returns the paper's pipeline as named stages — correlate
// → characterize → stat-tests → threat-intel → malware — writing into out
// as they run. Every cmd and LoadSnapshotOpts composes these same stages, so
// there is exactly one wiring of the analysis path.
func (ds *Dataset) AnalysisStages(cfg Config, out *Results) []pipeline.Stage {
	return append([]pipeline.Stage{ds.correlateStage(cfg, out)}, ds.DownstreamStages(cfg, out)...)
}

// correlateStage is the inference stage proper: stream the dataset's hour
// files through the correlator into out.Correlate. A sharded run attaches
// one metrics record per shard (correlate/shard-K) under the stage's row.
func (ds *Dataset) correlateStage(cfg Config, out *Results) pipeline.Stage {
	return pipeline.Func(StageCorrelate, func(ctx context.Context, st *pipeline.State) error {
		corr := correlate.New(ds.Inventory, cfg.CorrelatorOptions())
		res, reports, err := corr.ProcessDatasetSharded(ctx, ds.Dir)
		if len(reports) > 1 {
			for _, r := range reports {
				sm := pipeline.Attach(ctx, fmt.Sprintf("%s/shard-%d", StageCorrelate, r.Shard))
				sm.RecordsIn = r.Records
				sm.RecordsOut = uint64(r.Devices)
				sm.Note = fmt.Sprintf("iot=%d", r.RecordsIoT)
			}
		}
		if err != nil {
			classifyIngestErr(pipeline.Meter(ctx), err)
			return fmt.Errorf("core: correlate: %w", err)
		}
		m := pipeline.Meter(ctx)
		var iot uint64
		for i := range res.Hourly {
			iot += res.Hourly[i].RecordsIoT
		}
		m.RecordsIn = res.Background.Records + iot
		m.RecordsOut = uint64(len(res.Devices))
		m.Retries = res.Ingest.HoursRetried
		m.QuarantinedHours = res.Ingest.HoursQuarantined
		out.Correlate = res
		return nil
	})
}

// DownstreamStages returns the analysis stages that consume an already
// materialized correlation result (out.Correlate must be set before they
// run) — characterize → stat-tests → threat-intel → malware. The
// store-loading path composes these without the correlate stage: a loaded
// snapshot replaces the inference, not the investigation.
func (ds *Dataset) DownstreamStages(cfg Config, out *Results) []pipeline.Stage {
	return []pipeline.Stage{
		pipeline.Func(StageCharacterize, func(ctx context.Context, st *pipeline.State) error {
			an := analysis.New(out.Correlate, ds.Inventory, ds.Registry)
			out.Analyzer = an
			out.Summary = an.Summary()
			m := pipeline.Meter(ctx)
			m.RecordsIn = uint64(len(out.Correlate.Devices))
			m.RecordsOut = uint64(out.Summary.Total)
			return nil
		}),
		pipeline.Func(StageStatTests, func(ctx context.Context, st *pipeline.State) error {
			var err error
			out.StatTests, err = out.Analyzer.RunStatTests(ctx)
			if err != nil {
				return fmt.Errorf("core: stat tests: %w", err)
			}
			return nil
		}),
		pipeline.Func(StageThreatIntel, func(ctx context.Context, st *pipeline.State) error {
			// Sec. V-A: threat-repository correlation, cut scaled like the
			// paper.
			topCut := cfg.ExploreTopPerCategory
			if topCut <= 0 {
				topCut = 4000
			}
			scaled := int(float64(topCut)*ds.Scenario.Scale + 0.5)
			if scaled < 10 {
				scaled = 10
			}
			var err error
			out.Threat, err = threatintel.Investigate(ctx,
				threatintel.InvestigateConfig{TopPerCategory: scaled},
				out.Correlate, ds.Inventory, ds.Threat)
			if err != nil {
				return fmt.Errorf("core: threat intel: %w", err)
			}
			m := pipeline.Meter(ctx)
			m.RecordsIn = uint64(out.Threat.Explored)
			m.RecordsOut = uint64(len(out.Threat.Flagged))
			return nil
		}),
		pipeline.Func(StageMalware, func(ctx context.Context, st *pipeline.State) error {
			// Sec. V-B: malware-database correlation over every inferred
			// device.
			ips := make(map[int]netx.Addr, len(out.Correlate.Devices))
			for id := range out.Correlate.Devices {
				ips[id] = ds.Inventory.At(id).IP
			}
			var err error
			out.Malware, err = ds.Malware.Correlate(ctx, ips, ds.Catalog)
			if err != nil {
				return fmt.Errorf("core: malware correlate: %w", err)
			}
			m := pipeline.Meter(ctx)
			m.RecordsIn = uint64(len(ips))
			m.RecordsOut = uint64(len(out.Malware.MatchedDevices))
			return nil
		}),
		pipeline.Func(StageMaterialize, func(ctx context.Context, st *pipeline.State) error {
			// Read-side materialization: precompute every aggregate the
			// serving layer answers from, so request cost is O(answer)
			// regardless of dataset size (see internal/matview).
			v, err := matview.Build(matview.Sources{
				Result:    out.Correlate,
				Analyzer:  out.Analyzer,
				Summary:   out.Summary,
				StatTests: out.StatTests,
				Malware:   out.Malware,
				Inventory: ds.Inventory,
				Registry:  ds.Registry,
				Threat:    ds.Threat,
				Digest:    out.storeDigest,
			})
			if err != nil {
				return fmt.Errorf("core: materialize: %w", err)
			}
			out.Views = v
			vs := v.Stats()
			m := pipeline.Meter(ctx)
			m.RecordsIn = uint64(len(out.Correlate.Devices))
			m.RecordsOut = uint64(v.NumDevices())
			from := "computed"
			if out.storeDigest != 0 {
				from = "store"
			}
			m.Note = fmt.Sprintf("digest=%s (%s) static=%dB reports=%dB build=%.1fms",
				vs.Digest, from, vs.StaticBytes, vs.ReportsBytes, vs.BuildMillis)
			return nil
		}),
	}
}

// AnalyzeStaged runs the paper's pipeline over the dataset through the
// staged engine, returning the per-stage report alongside the results. The
// report is returned even on failure — it records which stage stopped the
// run and why.
func (ds *Dataset) AnalyzeStaged(ctx context.Context, cfg Config) (*Results, *pipeline.Report, error) {
	out := &Results{}
	rep, err := pipeline.New("analyze", ds.AnalysisStages(cfg, out)...).Run(ctx, nil)
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// Analyze runs the paper's pipeline over the dataset. It is the
// non-cancellable convenience form of AnalyzeStaged.
func (ds *Dataset) Analyze(cfg Config) (*Results, error) {
	res, _, err := ds.AnalyzeStaged(context.Background(), cfg)
	return res, err
}
