package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iotscope/internal/correlate"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
)

// ErrSnapshotMismatch marks a store file that decoded cleanly but does not
// belong to the dataset being served: wrong hour span or device indices
// outside the inventory. Staleness is permanent — retrying the same pair
// cannot fix it — so it is never retryable.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match dataset")

// Provenance records where a served snapshot's analyzed state came from:
// straight from a result store artifact, or re-derived by raw analysis
// (the fallback). Fallback carries the reason a configured store was
// passed over, and is the health signal iotserve degrades on.
type Provenance struct {
	// Source is "store" when the correlation was loaded from a result
	// store, "analyze" when it was recomputed from raw hour files.
	Source string `json:"source"`
	// StorePath is the store artifact actually loaded (empty for analyze).
	StorePath string `json:"store,omitempty"`
	// CodecVersion is the resultstore codec version of the loaded artifact.
	CodecVersion int `json:"codecVersion,omitempty"`
	// Fallback explains why a configured store was not used (empty when no
	// store was configured, or when the store loaded cleanly).
	Fallback string `json:"storeFallback,omitempty"`
}

// SaveSnapshot persists the analysis' correlation state as a result store
// artifact at path (atomic write). Everything downstream of correlation is
// cheap to recompute, so the correlate.Result is the unit of persistence.
func SaveSnapshot(path string, res *Results) error {
	if res == nil || res.Correlate == nil {
		return errors.New("core: no correlation result to save")
	}
	return resultstore.WriteResult(path, res.Correlate)
}

// SaveSnapshotStage wraps SaveSnapshot as a named pipeline stage, so
// iotinfer -save reports the write alongside the analysis stages.
func SaveSnapshotStage(path string, out *Results) pipeline.Stage {
	return pipeline.Func(StageSaveStore, func(ctx context.Context) error {
		if err := SaveSnapshot(path, out); err != nil {
			return fmt.Errorf("core: save store: %w", err)
		}
		m := pipeline.Meter(ctx)
		m.RecordsOut = uint64(len(out.Correlate.Devices))
		m.Note = "saved " + path
		return nil
	})
}

// OpenSnapshot loads a result store artifact and validates it against this
// dataset: the hour span must match the scenario and every device index
// must exist in the inventory. A decode failure keeps the resultstore
// taxonomy (ErrTruncated retryable, ErrBadFormat permanent); a mismatch
// wraps ErrSnapshotMismatch.
func (ds *Dataset) OpenSnapshot(path string) (*correlate.Result, error) {
	res, err := resultstore.ReadResult(path)
	if err != nil {
		return nil, err
	}
	if err := ds.checkSnapshot(res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkSnapshot is the half of OpenSnapshot that needs the dataset.
func (ds *Dataset) checkSnapshot(res *correlate.Result) error {
	if res.Hours != ds.Scenario.Hours {
		return fmt.Errorf("%w: store spans %d hours, dataset %d",
			ErrSnapshotMismatch, res.Hours, ds.Scenario.Hours)
	}
	for id := range res.Devices {
		if id < 0 || id >= ds.Inventory.Len() {
			return fmt.Errorf("%w: store device %d outside inventory of %d",
				ErrSnapshotMismatch, id, ds.Inventory.Len())
		}
	}
	return nil
}

// RestoreIncremental rebuilds a checkpointed incremental correlator
// against this dataset, validating the checkpoint's hour span against the
// scenario before handing it to the correlate-level restore.
func (ds *Dataset) RestoreIncremental(cfg Config, cp *correlate.CheckpointExport) (*correlate.Incremental, error) {
	if cp != nil && ds.Scenario.Hours > 0 && cp.MaxHours != ds.Scenario.Hours {
		return nil, fmt.Errorf("%w: checkpoint spans %d hours, dataset %d",
			ErrSnapshotMismatch, cp.MaxHours, ds.Scenario.Hours)
	}
	return correlate.New(ds.Inventory, cfg.CorrelatorOptions()).RestoreIncremental(cp)
}

// LoadOptions tunes LoadSnapshotOpts.
type LoadOptions struct {
	// Store is the result store artifact to prefer over raw analysis
	// (empty: always analyze).
	Store string
	// RequireStore makes a store failure fatal instead of falling back to
	// raw analysis — the hot-reload mode, where a bad artifact must keep
	// the currently served snapshot rather than silently pay a full
	// re-analysis inside the reload deadline.
	RequireStore bool
}

// storeErrClass buckets a store-load failure for the stage report.
func storeErrClass(err error) string {
	switch {
	case resultstore.IsRetryable(err):
		return "retryable"
	case errors.Is(err, ErrSnapshotMismatch):
		return "stale"
	case errors.Is(err, resultstore.ErrBadFormat):
		return "corrupt"
	}
	return ""
}

// LoadSnapshotOpts opens the dataset at dir and produces a complete,
// servable (Dataset, Results) pair as stages of one pipeline:
//
//	open → load-store → analyze
//
// With a store configured, reading it (file, decode, live Result) needs only
// its path, so it runs on its own goroutine from before open starts;
// load-store joins it and then checks the result against the dataset as
// OpenSnapshot does. A valid store installs its correlation result and the
// digest the codec took off its bytes (the codec already replayed every
// checksum), and analyze runs only the downstream stages, whose materialize
// stage has no digest left to compute. Without a store — or when the
// configured one is corrupt, truncated, or stale and RequireStore is false —
// load-store skips with the reason in its stage note and the full analysis
// runs. Its strict correlate stage is the integrity gate: it refuses a
// missing or out-of-span hour file before reading any, then reads every
// hour to its footer and checksum and fails with the lowest damaged one.
// Either way the returned Provenance says which path produced the state, so
// servers can surface the fallback as degraded health. The report is
// returned even on failure and records which stage stopped the load.
func LoadSnapshotOpts(ctx context.Context, dir string, opts LoadOptions) (*Dataset, *Results, Provenance, *pipeline.Report, error) {
	var ds *Dataset
	res := &Results{}
	prov := Provenance{Source: "analyze"}
	type storeRead struct {
		res  *correlate.Result
		info resultstore.Info
		err  error
		took time.Duration
	}
	// Buffered: when open fails, load-store never runs and nobody receives;
	// the read still finishes, sends, and exits.
	read := make(chan storeRead, 1)
	if opts.Store != "" {
		go func() {
			start := time.Now()
			r, info, err := resultstore.LoadResult(opts.Store)
			read <- storeRead{r, info, err, time.Since(start)}
		}()
	}
	rep, err := pipeline.New("load-snapshot",
		pipeline.Func(StageOpen, func(ctx context.Context) error {
			var err error
			if ds, err = open(ctx, dir); err != nil {
				return err
			}
			pipeline.Meter(ctx).Note = "malware: " + ds.MalwareSource
			return nil
		}),
		pipeline.Func(StageLoadStore, func(ctx context.Context) error {
			m := pipeline.Meter(ctx)
			if opts.Store == "" {
				m.Note = "no store configured"
				return pipeline.ErrSkipped
			}
			r := <-read
			loaded, err := r.res, r.err
			if err == nil {
				err = ds.checkSnapshot(loaded)
			}
			if err != nil {
				m.ErrorClass = storeErrClass(err)
				if opts.RequireStore {
					return fmt.Errorf("core: load store: %w", err)
				}
				prov.Fallback = err.Error()
				m.Note = "store unusable, falling back to analysis: " + err.Error()
				return pipeline.ErrSkipped
			}
			res.Correlate, res.storeDigest = loaded, r.info.Digest
			prov = Provenance{Source: "store", StorePath: opts.Store, CodecVersion: resultstore.Version}
			m.RecordsOut = uint64(len(loaded.Devices))
			m.Note = fmt.Sprintf("loaded %s (read %.1fms, overlapping open)", opts.Store, float64(r.took.Microseconds())/1000)
			return nil
		}),
		// The analysis sequence is composed at run time: the dataset (and
		// with it the stage closures) only exists once "open" has run, and
		// which stages run depends on whether load-store succeeded.
		pipeline.Func(StageLoad, func(ctx context.Context) error {
			cfg := DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
			stages := ds.AnalysisStages(cfg, res)
			if prov.Source == "store" {
				stages = ds.DownstreamStages(cfg, res)
			}
			return pipeline.Sequence("analysis", stages...).Run(ctx)
		}),
	).Run(ctx)
	if err != nil {
		return nil, nil, prov, rep, err
	}
	return ds, res, prov, rep, nil
}
