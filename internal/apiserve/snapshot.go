package apiserve

import (
	"fmt"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/matview"
)

// Snapshot is one immutable (dataset, results, views) triple the server
// serves from. The server swaps whole snapshots atomically, so every
// request observes a consistent dataset/results/views set even while a
// hot reload is in flight: a handler loads the pointer once and uses
// that snapshot for its entire lifetime.
type Snapshot struct {
	ds    *core.Dataset
	res   *core.Results
	views *matview.Views
	// etag is this snapshot's strong validator, "g<generation>-<digest>"
	// quoted: the generation pins the serving instance's swap history and
	// the resultstore content digest pins the analyzed state.
	etag string

	// Generation counts snapshot swaps, starting at 1 for the snapshot
	// the server booted with.
	Generation uint64
	// LoadedAt records when this snapshot was installed.
	LoadedAt time.Time
}

// Dataset exposes the snapshot's dataset (read-only by convention).
func (sn *Snapshot) Dataset() *core.Dataset { return sn.ds }

// Results exposes the snapshot's analysis results (read-only by
// convention).
func (sn *Snapshot) Results() *core.Results { return sn.res }

// Views exposes the snapshot's materialized read-side views.
func (sn *Snapshot) Views() *matview.Views { return sn.views }

// ETag is the snapshot's strong cache validator, quoted for direct use
// in ETag / If-None-Match headers.
func (sn *Snapshot) ETag() string { return sn.etag }

// reloadFailure records the most recent failed reload; serving continues
// from the previous snapshot but health reports degraded until a reload
// succeeds.
type reloadFailure struct {
	msg string
	at  time.Time
}

// Swap atomically installs a new snapshot built from ds and res and
// returns its generation. A successful swap clears any recorded reload
// failure. The previous snapshot keeps serving requests that already
// loaded it.
//
// Results produced by the analysis pipeline arrive with their read-side
// views already materialized (the materialize stage); hand-assembled
// Results get the same materialization here, so a served snapshot always
// has views. A failed build rejects the swap — the old snapshot keeps
// serving, exactly like a failed reload.
func (s *Server) Swap(ds *core.Dataset, res *core.Results) (uint64, error) {
	if ds == nil || res == nil {
		return 0, fmt.Errorf("apiserve: nil dataset or results")
	}
	views := res.Views
	if views == nil {
		v, err := matview.Build(matview.Sources{
			Result:    res.Correlate,
			Analyzer:  res.Analyzer,
			Summary:   res.Summary,
			StatTests: res.StatTests,
			Malware:   res.Malware,
			Inventory: ds.Inventory,
			Registry:  ds.Registry,
			Threat:    ds.Threat,
			MalwareDB: ds.Malware,
			Catalog:   ds.Catalog,
		})
		if err != nil {
			return 0, fmt.Errorf("apiserve: materialize views: %w", err)
		}
		views = v
	}
	gen := s.gen.Add(1)
	s.snap.Store(&Snapshot{
		ds: ds, res: res, views: views,
		etag:       fmt.Sprintf(`"g%d-%08x"`, gen, views.Digest()),
		Generation: gen, LoadedAt: s.clock(),
	})
	s.reloadFail.Store(nil)
	return gen, nil
}

// NoteReloadFailure records a failed reload attempt: the current snapshot
// keeps serving, and /healthz reports degraded until a later Swap
// succeeds. A bad reload must never crash or blank the API.
func (s *Server) NoteReloadFailure(err error) {
	if err == nil {
		return
	}
	s.reloadFail.Store(&reloadFailure{msg: err.Error(), at: s.clock()})
}

// Generation returns the generation of the currently served snapshot.
func (s *Server) Generation() uint64 { return s.snap.Load().Generation }

// Current returns the currently served snapshot.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// SetDraining flips the server's lifecycle state. While draining,
// /healthz answers 503 with status "draining" so load balancers stop
// routing new traffic; in-flight and late-arriving requests are still
// served normally until the listener closes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }
