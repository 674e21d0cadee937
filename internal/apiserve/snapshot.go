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
// res must carry the read-side views its materialize stage built (see
// core.DownstreamStages); Swap serves them and builds none. Results
// without views are rejected and the old snapshot keeps serving, exactly
// like a failed reload.
func (s *Server) Swap(ds *core.Dataset, res *core.Results) (uint64, error) {
	if ds == nil || res == nil {
		return 0, fmt.Errorf("apiserve: nil dataset or results")
	}
	if res.Views == nil {
		return 0, fmt.Errorf("apiserve: results carry no materialized views")
	}
	gen := s.gen.Add(1)
	s.snap.Store(&Snapshot{
		ds: ds, res: res, views: res.Views,
		etag:       fmt.Sprintf(`"g%d-%08x"`, gen, res.Views.Digest()),
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

// SetDraining flips the server's lifecycle state. While draining,
// /healthz answers 503 with status "draining" so load balancers stop
// routing new traffic; in-flight and late-arriving requests are still
// served normally until the listener closes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }
