package correlate

import (
	"context"
	"fmt"

	"iotscope/internal/sketch"
)

// Incremental is the near-real-time mode the paper's Discussion targets
// ("automate the devised methodologies to index, in near real-time,
// unsolicited Internet-scale IoT devices"): hour files are ingested as they
// arrive, the running Result stays queryable between hours, and each
// ingest reports the devices discovered for the first time.
//
// Under Options.FaultPolicy == Lenient, Ingest distinguishes retryable
// failures (the file ends early — a non-atomic producer may still be
// writing it — or does not exist yet) from permanent corruption: permanent
// faults quarantine the hour immediately, retryable ones leave it eligible
// for another Ingest, and the caller decides when to give up via
// Quarantine. Either way a failed hour contributes nothing to the running
// result: partial accumulators are discarded whole.
type Incremental struct {
	c           *Correlator
	res         *Result
	bg          *sketch.HLL
	st          *mergeState
	hours       map[int]bool
	quarantined map[int]bool

	// delta holds the one sealed hour not yet handed to a checkpoint
	// writer; unsaved counts hours sealed since the last Delta call (only
	// the first of them is captured — beyond one, a frame cannot express
	// the change and the writer exports in full).
	delta   HourDelta
	unsaved int
}

// NewIncremental returns an incremental correlator sized for up to
// maxHours hour slots.
func (c *Correlator) NewIncremental(maxHours int) (*Incremental, error) {
	if maxHours <= 0 {
		return nil, fmt.Errorf("correlate: maxHours %d must be positive", maxHours)
	}
	if err := c.checkShards(); err != nil {
		return nil, err
	}
	bg, _ := sketch.NewHLL(bgPrecision) // a valid precision: cannot fail
	return &Incremental{
		c:           c,
		res:         newResult(maxHours),
		bg:          bg,
		st:          newMergeState(),
		hours:       make(map[int]bool, maxHours),
		quarantined: make(map[int]bool),
	}, nil
}

// Ingest processes one newly arrived hour file — a window opened, fed from
// the file and sealed — and returns the IDs of devices seen for the first
// time (the near-real-time notification feed), ascending. Ingesting the
// same hour twice is rejected, as is an hour that has been quarantined.
//
// On failure the hour's partial accumulators are discarded atomically and
// the returned error wraps the cause (test with IsRetryable and
// flowtuple.ErrBadFormat). Under the Lenient policy the fault is also
// recorded in the running IngestStats, and permanent corruption
// quarantines the hour; retryable failures leave it open for another try.
//
// Cancelling ctx mid-ingest returns ctx.Err() without recording a fault or
// quarantining the hour — it stays eligible for a later Ingest, and the
// partial accumulators are discarded whole exactly as on a fault.
func (inc *Incremental) Ingest(ctx context.Context, dir string, hour int) ([]int, error) {
	w, err := inc.OpenWindow(hour)
	if err != nil {
		return nil, err
	}
	if err := w.feedFile(ctx, dir); err != nil {
		w.Abort()
		inc.FailHour(hour, err)
		return nil, err
	}
	st, err := w.Seal()
	return st.Fresh, err
}

// admits is the guard on every way into the running result: the hour must
// be in range, not yet ingested and not quarantined.
func (inc *Incremental) admits(hour int) error {
	switch {
	case hour < 0 || hour >= len(inc.res.Hourly):
		return fmt.Errorf("correlate: hour %d outside [0, %d)", hour, len(inc.res.Hourly))
	case inc.hours[hour]:
		return fmt.Errorf("correlate: hour %d already ingested", hour)
	case inc.quarantined[hour]:
		return fmt.Errorf("correlate: hour %d quarantined", hour)
	}
	return nil
}

// merge folds a folded, finalized hour scratch into the running result —
// the one sequence Ingest, Window.Seal, the batch merger and checkpoint
// replay all end in. The scratch is recycled either way; the hour becomes
// ingested. The guard is re-checked here because a window can be open while
// its hour is settled by another: merging it too would overwrite the hour's
// row and double its counters, so it is refused and nothing is booked.
func (inc *Incremental) merge(s *hourScratch) error {
	if err := inc.admits(s.hour); err != nil {
		inc.c.putScratch(s)
		return err
	}
	st := inc.st
	capture := inc.unsaved == 0
	var raised []RegisterDelta
	if capture {
		raised = inc.delta.BGRegisters[:0]
		inc.bg.Raised(s.bgSrcHLL, func(i int, rank uint8) { //nolint:errcheck // same precision by construction
			raised = append(raised, RegisterDelta{Index: uint32(i), Rank: rank})
		})
	}
	nu, nc, np := len(st.udpGained), len(st.conGained), len(st.cpsGained)
	mergeDense(inc.res, s, inc.bg, st)
	if capture {
		inc.delta.capture(s, raised, st.udpGained[nu:], st.conGained[nc:], st.cpsGained[np:])
	}
	inc.unsaved++
	inc.hours[s.hour] = true
	inc.res.Ingest.noteSuccess(s.hour)
	inc.c.putScratch(s) // last: a concurrent window may draw it at once
	return nil
}

// Quarantine abandons an hour permanently — typically after the caller has
// exhausted retries on a retryable fault. It is idempotent and a no-op for
// hours already ingested.
func (inc *Incremental) Quarantine(hour int, err error) {
	if inc.hours[hour] || inc.quarantined[hour] {
		return
	}
	inc.quarantined[hour] = true
	inc.res.Ingest.noteQuarantine(hour, err, IsRetryable(err))
}

// Quarantined reports whether the hour has been abandoned.
func (inc *Incremental) Quarantined(hour int) bool { return inc.quarantined[hour] }

// Stats returns a snapshot of the running ingestion statistics.
func (inc *Incremental) Stats() IngestStats {
	s := inc.res.Ingest
	s.Faults = append([]HourFault(nil), inc.res.Ingest.Faults...)
	return s
}

// HoursIngested returns how many hour files have been folded in.
func (inc *Incremental) HoursIngested() int { return len(inc.hours) }

// Result returns the live running result. The caller must not retain it
// across Ingest calls if it needs a stable snapshot. The per-port device
// lists are materialized here (not per Ingest), so ingestion itself stays
// allocation-light.
func (inc *Incremental) Result() *Result {
	inc.st.finalizeResult(inc.res)
	inc.res.Background.Sources = inc.bg.Estimate()
	return inc.res
}
