package correlate

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"iotscope/internal/classify"
	"iotscope/internal/flowtuple"
)

// This file is the one way records reach the running result: an explicit
// open → feed → seal lifecycle over pooled hour scratches. A live collector
// pushes record batches as they arrive; Ingest and the batch workers feed a
// whole hour file through the same window. Every sealed window ends in
// Incremental.merge, so batch, incremental, streamed and sharded runs differ
// only in who opens the windows and from how many goroutines.
//
// A window accumulates into Options.Shards planes — one scratch per
// source-prefix shard, all drawn from the correlator's one pool — and folds
// them into a single scratch before it is finalized, so everything after the
// fold is the same for any plane count.
//
// A window is not safe for concurrent use, but it may change goroutines
// between calls: the stream collector feeds its windows on one goroutine and
// hands each to its ingest loop to seal, and each batch worker owns its own.

// Window is one in-flight event-time hour being accumulated record batch
// by record batch. It holds pooled scratches; every Window must end in
// exactly one Seal or Abort, or they leak from the pool.
type Window struct {
	inc     *Incremental
	planes  []*hourScratch // indexed by SrcIP >> shift
	hour    int
	records uint64
	done    bool
}

// WindowStats summarizes one sealed window, cheap enough to compute per
// seal (no Result finalization): the alerting layer reads backscatter and
// fresh devices straight from here, and the campaign tracker learns from
// TCPPorts and TCPGained which of its profiles the hour made stale. Every
// slice is the caller's own.
type WindowStats struct {
	Hour        int
	Records     uint64 // records fed, including non-IoT background
	RecordsIoT  uint64
	IoTPackets  uint64 // all traffic classes, both device categories
	Backscatter uint64 // backscatter-class packets (the DoS signal)
	Fresh       []int  // device IDs seen for the first time, ascending
	// TCPPorts are the TCP scan ports the hour touched — the only entries of
	// Result.TCPScanPorts whose packets or device lists the seal changed —
	// in first-touch order.
	TCPPorts []uint16
	// TCPGained are the port<<32|device keys the seal added to those ports'
	// device lists, consumer realm then CPS: one key per list entry gained.
	TCPGained []uint64
}

// OpenWindow starts accumulating the given event-time hour, which must be
// in range, not yet ingested and not quarantined.
func (inc *Incremental) OpenWindow(hour int) (*Window, error) {
	if err := inc.admits(hour); err != nil {
		return nil, err
	}
	return inc.DrawWindow(hour), nil
}

// DrawWindow draws a window's planes from the pool without consulting the
// hour bookkeeping, which belongs to the goroutine that merges, so it may
// run concurrently with that goroutine: batch workers and the stream
// collector's window stage open windows while another goroutine seals, and
// leave the settled-hour guard to merge. The hour must be in
// [0, MaxHours()); OpenWindow is the guarded form.
func (inc *Incremental) DrawWindow(hour int) *Window {
	w := &Window{inc: inc, hour: hour, planes: make([]*hourScratch, 0, inc.c.opts.Shards)}
	for range inc.c.opts.Shards {
		s := inc.c.getScratch()
		s.hour = hour
		s.stats.Hour = hour
		w.planes = append(w.planes, s)
	}
	return w
}

// Hour returns the window's event-time hour.
func (w *Window) Hour() int { return w.hour }

// Records returns how many records have been fed so far.
func (w *Window) Records() uint64 { return w.records }

// Feed folds a batch of records into the window, each into the plane its
// source address belongs to. The batch is read, never retained, so callers
// may reuse the backing slice.
func (w *Window) Feed(batch []flowtuple.Record) error {
	if w.done {
		return fmt.Errorf("correlate: window for hour %d already sealed", w.hour)
	}
	c, planes := w.inc.c, w.planes
	for i := range batch {
		rec := &batch[i]
		c.accumulate(planes[rec.SrcIP>>c.shift], w.hour, rec)
	}
	w.records += uint64(len(batch))
	return nil
}

// feedFile decodes the window's hour file once and feeds it whole — the one
// place an hour file is opened. ctx is checked between record batches; on
// any error the window holds a partial hour and must be aborted.
func (w *Window) feedFile(ctx context.Context, dir string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rd, err := flowtuple.Open(flowtuple.HourPath(dir, w.hour))
	if err != nil {
		return err
	}
	defer rd.Close()
	batch := w.planes[0].batch
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := rd.NextBatch(batch)
		if ferr := w.Feed(batch[:n]); ferr != nil {
			return ferr
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// fold ends accumulation: planes 1…N-1 are absorbed into plane 0 and
// recycled, and plane 0 — now the scratch an unsharded window would hold —
// is finalized and handed to the caller, who owes it to merge.
func (w *Window) fold() *hourScratch {
	w.done = true
	s := w.planes[0]
	for _, o := range w.planes[1:] {
		s.absorb(o)
		w.inc.c.putScratch(o)
	}
	w.planes = nil
	s.finalize(w.hour)
	return s
}

// Seal completes the window: the hour's accumulators are folded, finalized
// and merged into the running result, and the hour becomes ingested. The
// returned stats carry the fresh-device list and the hour's traffic surface
// for the alerting layer. If the hour was settled while the window was open
// (another window or an Ingest got there first) Seal fails and the window's
// records are discarded whole, as by Abort.
func (w *Window) Seal() (WindowStats, error) {
	if w.done {
		return WindowStats{}, fmt.Errorf("correlate: window for hour %d already sealed", w.hour)
	}
	s := w.fold()

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
	for _, idx := range s.touched {
		if !w.inc.st.knownDevice(idx) {
			st.Fresh = append(st.Fresh, int(idx))
		}
	}
	sort.Ints(st.Fresh)
	st.TCPPorts = slices.Clone(s.tcpTouched) // merge recycles the scratch

	ms := w.inc.st
	nc, np := len(ms.conGained), len(ms.cpsGained)
	if err := w.inc.merge(s); err != nil {
		return WindowStats{}, err
	}
	st.TCPGained = slices.Concat(ms.conGained[nc:], ms.cpsGained[np:])
	return st, nil
}

// Abort discards the window whole — nothing fed so far reaches the
// running result — and recycles its scratches. The hour stays eligible for
// a later window or Ingest. Idempotent after Seal or a prior Abort.
func (w *Window) Abort() {
	if w.done {
		return
	}
	w.done = true
	for _, s := range w.planes {
		w.inc.c.putScratch(s)
	}
	w.planes = nil
}

// FailHour is the one place an hour-level ingest fault is booked: under the
// Lenient policy the fault lands in the running IngestStats, and permanent
// corruption quarantines the hour while retryable damage leaves it open for
// another try. Under the Strict policy, for context errors, and for hours
// already settled it records nothing. Ingest and the batch merger call it
// for an hour file that failed to read; the streaming collector calls it
// when a tailed file turns out corrupt mid-stream, after aborting the
// hour's window.
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
