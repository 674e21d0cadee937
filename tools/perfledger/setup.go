package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"iotscope/internal/apiserve"
	"iotscope/internal/core"
	"iotscope/internal/flowtuple"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
	"iotscope/internal/scenario"
	"iotscope/internal/wgen"
)

const apiToken = "perfledger"

// fixture is one fully set-up system under test: the generated dataset on
// disk, the reference analysis every later answer is checked against, a saved
// snapshot, the directory the stream phase follows, and a live API server.
type fixture struct {
	w   workload
	sz  sizing
	dir string // owns everything below; removed by close

	rs  *scenario.Resolved
	ds  *core.Dataset
	cfg core.Config

	res          *core.Results // the reference analysis
	digest       uint32        // resultstore.DigestResult of res.Correlate
	records      uint64        // records the generator wrote
	snapPath     string
	followDir    string
	followHours  int
	followDigest uint32 // digest of the state after ingesting the followed hours

	api *apiserve.Server
	srv *httptest.Server
	mix []request
}

// generate turns the seed into the workload's dataset on disk.
func generate(w workload, sz sizing, seed uint64, dir string) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{w: w, sz: sz, dir: dir}
	opts := scenario.Options{Scale: sz.scale(w), Seed: seed, Hours: sz.hours}
	ref := w.scenario
	if w.bgMult > 1 {
		// The haystack scenario is a file the benchmark owns, derived from
		// the bundled one and resolved the way a user's file would be.
		cfg, err := scenario.Load(w.scenario)
		if err != nil {
			return nil, err
		}
		for _, a := range cfg.Actors {
			if bg, ok := a.Params.(*wgen.BackgroundConfig); ok {
				bg.HourlyPackets *= w.bgMult
				bg.Sources = int(float64(bg.Sources) * w.bgMult)
			}
		}
		cfg.Name = "haystack"
		cfg.Description = fmt.Sprintf("perfledger: %s with the background actor x%g", w.scenario, w.bgMult)
		data, err := cfg.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		ref = filepath.Join(dir, "haystack@1.json")
		if err := os.WriteFile(ref, data, 0o644); err != nil {
			return nil, err
		}
	}
	rs, err := scenario.Resolve(ref, opts)
	if err != nil {
		return nil, err
	}
	fx.rs = rs
	fx.cfg = core.DefaultConfig(opts.Scale, seed)
	fx.ds, err = core.GenerateScenario(fx.cfg, rs, filepath.Join(dir, "ds"))
	if err != nil {
		return nil, err
	}
	fx.records = fx.ds.GenStats.Collector.RecordsWritten
	return fx, nil
}

// prepare brings the generated dataset to "system ready": reference
// analysis, saved snapshot, followed directory, and a serving API.
func (fx *fixture) prepare(ctx context.Context) error {
	res, _, err := fx.ds.AnalyzeStaged(ctx, fx.cfg)
	if err != nil {
		return err
	}
	fx.res = res
	if fx.digest, err = resultstore.DigestResult(res.Correlate); err != nil {
		return err
	}
	fx.snapPath = filepath.Join(fx.dir, "snapshot.irs")
	if err := core.SaveSnapshot(fx.snapPath, res); err != nil {
		return err
	}

	// The followed directory holds the leading hours as hard links, so the
	// stream phase reads the same bytes the batch phases do.
	hours := fx.ds.Scenario.Hours
	fx.followHours = fx.w.followHours
	if fx.followHours <= 0 || fx.followHours > hours {
		fx.followHours = hours
	}
	fx.followDir = fx.ds.Dir
	if fx.followHours < hours {
		fx.followDir = filepath.Join(fx.dir, "follow")
		if err := os.MkdirAll(fx.followDir, 0o755); err != nil {
			return err
		}
		for h := 0; h < fx.followHours; h++ {
			if err := os.Link(flowtuple.HourPath(fx.ds.Dir, h), flowtuple.HourPath(fx.followDir, h)); err != nil {
				return err
			}
		}
	}
	inc, err := fx.ds.NewIncremental(fx.streamConfig())
	if err != nil {
		return err
	}
	for h := 0; h < fx.followHours; h++ {
		if _, err := inc.Ingest(ctx, fx.ds.Dir, h); err != nil {
			return err
		}
	}
	if fx.followDigest, err = resultstore.DigestResult(inc.Result()); err != nil {
		return err
	}
	if fx.followHours == hours && fx.followDigest != fx.digest {
		return fmt.Errorf("incremental ingest of all %d hours digests %08x, batch %08x", hours, fx.followDigest, fx.digest)
	}

	ds, loaded, prov, _, err := core.LoadSnapshotOpts(ctx, fx.ds.Dir, core.LoadOptions{Store: fx.snapPath})
	if err != nil {
		return err
	}
	if prov.Source != "store" {
		return fmt.Errorf("set-up server analyzed instead of loading the store: %s", prov.Fallback)
	}
	if fx.api, err = apiserve.New(ds, loaded, []string{apiToken}); err != nil {
		return err
	}
	fx.srv = httptest.NewServer(fx.api)
	fx.mix = fx.buildMix()
	return nil
}

// streamConfig is the analysis configuration iotwatch -follow derives its
// correlator from: the dataset's own, lenient.
func (fx *fixture) streamConfig() core.Config {
	cfg := fx.cfg
	cfg.Lenient = true
	return cfg
}

func (fx *fixture) close() {
	if fx.srv != nil {
		fx.srv.Close()
	}
	os.RemoveAll(fx.dir)
}

// topCountry is the country filter of the device-page requests: the one with
// the most inferred devices, ties broken by code so it is seed-stable.
func (fx *fixture) topCountry() string {
	count := make(map[string]int)
	for id := range fx.res.Correlate.Devices {
		count[fx.ds.Inventory.At(id).Country]++
	}
	codes := make([]string, 0, len(count))
	for c := range count {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool {
		if count[codes[i]] != count[codes[j]] {
			return count[codes[i]] > count[codes[j]]
		}
		return codes[i] < codes[j]
	})
	if len(codes) == 0 {
		return ""
	}
	return codes[0]
}

// deviceIDs returns the inferred device indices, ascending.
func (fx *fixture) deviceIDs() []int {
	ids := make([]int, 0, len(fx.res.Correlate.Devices))
	for id := range fx.res.Correlate.Devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// datasetBytes sums the gzip hour files.
func (fx *fixture) datasetBytes() (int64, error) {
	var n int64
	for h := 0; h < fx.ds.Scenario.Hours; h++ {
		fi, err := os.Stat(flowtuple.HourPath(fx.ds.Dir, h))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// setUpAll performs the full set-up sz.setups times (same seed, so the same
// bytes) and keeps the last fixture. The kernel is timed between set-ups, so
// each set-up — and the generation inside it — is calibrated by the runs on
// either side like any phase.
func setUpAll(ctx context.Context, w workload, sz sizing, seed uint64, workdir string,
	kernel func() (time.Duration, error)) (fx *fixture, setups, generations []float64, err error) {
	before, err := kernel()
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < sz.setups; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		fx, err = generate(w, sz, seed, filepath.Join(workdir, fmt.Sprintf("setup-%d", i)))
		gen := time.Since(t0)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: generate: %w", i, err)
		}
		if err := fx.prepare(ctx); err != nil {
			fx.close()
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		whole := time.Since(t0)
		after, err := kernel()
		if err != nil {
			fx.close()
			return nil, nil, nil, err
		}
		setups = append(setups, calibrate(obs{kind: obsTime, value: whole.Seconds()}, before, after))
		generations = append(generations, calibrate(obs{kind: obsTime, value: gen.Seconds()}, before, after))
		before = after
	}
	return fx, setups, generations, nil
}

// analyze is what iotinfer runs: open the dataset directory and run the
// analysis stages with the given worker count (0 = the default).
func analyze(ctx context.Context, dir string, workers int) (*core.Results, error) {
	ds, err := core.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Workers = workers
	res := &core.Results{}
	_, err = pipeline.New("analyze", ds.AnalysisStages(cfg, res)...).Run(ctx, nil)
	return res, err
}
