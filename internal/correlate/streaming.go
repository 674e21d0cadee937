package correlate

import (
	"fmt"
	"sort"

	"iotscope/internal/classify"
	"iotscope/internal/flowtuple"
)

// This file is the streaming face of the incremental correlator: the same
// per-hour dense accumulation Ingest performs, split into an explicit
// open → feed → seal lifecycle so a live collector can push record batches
// as they arrive instead of waiting for a complete hour file. A sealed
// window goes through exactly the sequence Ingest runs after a successful
// read — finalize, fresh-device detection, dense merge, bookkeeping — so
// feeding a complete hour through a Window is byte-identical (through
// Export) to ingesting the finished file.
//
// Windows are not safe for concurrent use; the stream collector drives
// them from a single ingest goroutine, mirroring the single-merger design
// of the batch path.

// Window is one in-flight event-time hour being accumulated record batch
// by record batch. It holds a pooled scratch; every Window must end in
// exactly one Seal or Abort, or the scratch leaks from the pool.
type Window struct {
	inc     *Incremental
	s       *hourScratch
	hour    int
	records uint64
	done    bool
}

// WindowStats summarizes one sealed window, cheap enough to compute per
// seal (no Result finalization): the alerting layer reads backscatter and
// fresh devices straight from here.
type WindowStats struct {
	Hour        int
	Records     uint64 // records fed, including non-IoT background
	RecordsIoT  uint64
	IoTPackets  uint64 // all traffic classes, both device categories
	Backscatter uint64 // backscatter-class packets (the DoS signal)
	Fresh       []int  // device IDs seen for the first time, ascending
}

// OpenWindow starts accumulating the given event-time hour. The same
// guards as Ingest apply: the hour must be in range, not yet ingested and
// not quarantined.
func (inc *Incremental) OpenWindow(hour int) (*Window, error) {
	if hour < 0 || hour >= len(inc.res.Hourly) {
		return nil, fmt.Errorf("correlate: hour %d outside [0, %d)", hour, len(inc.res.Hourly))
	}
	if inc.hours[hour] {
		return nil, fmt.Errorf("correlate: hour %d already ingested", hour)
	}
	if inc.quarantined[hour] {
		return nil, fmt.Errorf("correlate: hour %d quarantined", hour)
	}
	s, err := inc.c.getScratch()
	if err != nil {
		return nil, err
	}
	s.hour = hour
	s.stats.Hour = hour
	return &Window{inc: inc, s: s, hour: hour}, nil
}

// Hour returns the window's event-time hour.
func (w *Window) Hour() int { return w.hour }

// Records returns how many records have been fed so far.
func (w *Window) Records() uint64 { return w.records }

// Feed folds a batch of records into the window. The batch is read, never
// retained, so callers may reuse the backing slice.
func (w *Window) Feed(batch []flowtuple.Record) error {
	if w.done {
		return fmt.Errorf("correlate: window for hour %d already sealed", w.hour)
	}
	for i := range batch {
		w.inc.c.accumulate(w.s, w.hour, &batch[i])
	}
	w.records += uint64(len(batch))
	return nil
}

// Seal completes the window: the hour's accumulators are finalized and
// merged into the running result exactly as Ingest would have, and the
// hour becomes ingested. The returned stats carry the fresh-device list
// and the hour's traffic surface for the alerting layer.
func (w *Window) Seal() (WindowStats, error) {
	if w.done {
		return WindowStats{}, fmt.Errorf("correlate: window for hour %d already sealed", w.hour)
	}
	w.done = true
	s := w.s
	s.finalize(w.hour)

	st := WindowStats{
		Hour:       w.hour,
		Records:    w.records,
		RecordsIoT: s.stats.RecordsIoT,
	}
	bsIdx := classify.Backscatter.Index()
	for ci := range s.stats.PerCat {
		for _, v := range s.stats.PerCat[ci].Packets {
			st.IoTPackets += v
		}
		st.Backscatter += s.stats.PerCat[ci].Packets[bsIdx]
	}

	st.Fresh = w.inc.merge(s)
	w.s = nil
	return st, nil
}

// Abort discards the window whole — nothing fed so far reaches the
// running result, exactly like a failed Ingest — and recycles the
// scratch. The hour stays eligible for a later window or Ingest.
// Idempotent after Seal or a prior Abort.
func (w *Window) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.inc.c.putScratch(w.s)
	w.s = nil
}

// FailHour records an hour-level ingest fault with Ingest's exact lenient
// semantics: the fault lands in the running IngestStats, and permanent
// corruption quarantines the hour while retryable damage leaves it open.
// Under the Strict policy (or for context errors) it records nothing,
// matching Ingest. The streaming collector calls this when a tailed file
// turns out corrupt mid-stream, after aborting the hour's window.
func (inc *Incremental) FailHour(hour int, err error) {
	if inc.c.opts.FaultPolicy != Lenient || isCtxErr(err) {
		return
	}
	if inc.hours[hour] || inc.quarantined[hour] {
		return
	}
	retryable := IsRetryable(err)
	inc.res.Ingest.noteFailure(hour, err, retryable)
	if !retryable {
		inc.quarantined[hour] = true
		inc.res.Ingest.HoursQuarantined++
	}
}

// Ingested reports whether the hour has been folded into the result.
func (inc *Incremental) Ingested(hour int) bool { return inc.hours[hour] }

// QuarantinedHours returns the abandoned hours, ascending.
func (inc *Incremental) QuarantinedHours() []int {
	out := make([]int, 0, len(inc.quarantined))
	for h := range inc.quarantined {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// MaxHours returns the hour-slot capacity the incremental was sized for.
func (inc *Incremental) MaxHours() int { return len(inc.res.Hourly) }
