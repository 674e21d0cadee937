// Package stream turns the batch correlator into a long-lived, crash-safe
// streaming collector: it tails arriving flowtuple data and feeds the
// incremental engine record-batch by record-batch, without waiting for
// hour boundaries.
//
// Event time is hour-granular (records carry no timestamps; the hour is
// the file's identity), so the watermark is an hour number: it trails the
// newest observed hour by a configurable lateness allowance. Hours at or
// ahead of the watermark accumulate in open windows; when the watermark
// passes a window it is sealed — finalized into the result, its alerts
// derived and journaled, and a checkpoint committed. Records that surface
// behind the watermark are never merged and never silently dropped: they
// are counted, and an hour that first appears behind the watermark is
// quarantined.
//
// Backpressure has one rule: the tailer blocks on a full event channel
// (eventBuffer events), so a slow ingest loop slows the tailing, and the
// cursor never passes a record the loop has not taken.
//
// Crash safety is the seal ordering: seal (in memory) → alert journal
// append (durable, deduplicated by key) → checkpoint commit (one fsynced
// delta frame appended to the checkpoint file, or the file rewritten whole
// when the frames would outgrow their base — see resultstore.CheckpointLog).
// A crash at any point resumes from the last commit, re-tails the unsealed
// hours, re-derives their alerts deterministically, and the journal's key
// dedup suppresses any alert that already became durable — alerts are
// exactly-once across kill-and-restart, and the resumed checkpoint
// converges to the state a never-killed run produces, byte-identical once
// re-encoded. A supervisor restarts a crashed ingest loop under
// pipeline.RetryPolicy with jittered backoff.
package stream

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"iotscope/internal/campaign"
	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
	"iotscope/internal/wal"
)

// ErrLateArrival marks an hour that first appeared behind the watermark:
// its window has irrevocably closed, so the hour is quarantined. It wraps
// flowtuple.ErrBadFormat (permanent, not retryable) so the incremental
// engine's fault taxonomy treats it like any other unrecoverable hour.
var ErrLateArrival = fmt.Errorf("stream: hour surfaced behind the watermark: %w", flowtuple.ErrBadFormat)

// Config parameterizes a Collector.
type Config struct {
	// Dir is the dataset directory being tailed.
	Dir string
	// CheckpointPath, when set, persists the incremental state there after
	// every sealed window (and every quarantine): one durable commit each.
	CheckpointPath string
	// Poll is the directory sweep interval (default 200ms).
	Poll time.Duration
	// Lateness is how many hours the watermark trails the newest observed
	// hour (default 1). Larger values tolerate more out-of-order arrival;
	// smaller values seal — and alert — sooner.
	Lateness int
	// DoSAlarm is the dos-spike alert threshold as a multiple of the
	// running median backscatter hour (default 8; negative disables).
	DoSAlarm float64
	// Campaigns enables new-campaign alerts: a campaign.Tracker follows the
	// seals, re-profiling per window only the scanners the hour touched.
	// Every caller sets it; it stays a field because tools/perfledger's
	// struct literals name it.
	Campaigns bool
	// Drain makes the collector exit cleanly once a full sweep finds
	// nothing new, force-sealing any still-open windows first.
	Drain bool
	// Supervisor governs ingest-loop restarts after a crash. Defaults: 3
	// restarts, 500ms base backoff (jittered, doubling), any error
	// restartable.
	Supervisor pipeline.RetryPolicy
}

func (cfg Config) withDefaults() Config {
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Lateness <= 0 {
		cfg.Lateness = 1
	}
	if cfg.DoSAlarm == 0 {
		cfg.DoSAlarm = 8
	}
	if cfg.Supervisor.MaxRetries == 0 {
		cfg.Supervisor.MaxRetries = 3
	}
	if cfg.Supervisor.BaseBackoff == 0 {
		cfg.Supervisor.BaseBackoff = 500 * time.Millisecond
	}
	if cfg.Supervisor.Retryable == nil {
		cfg.Supervisor.Retryable = func(error) bool { return true }
	}
	return cfg
}

// Opener constructs a fresh Incremental reflecting the current durable
// state — typically core.Dataset.RestoreIncremental from the checkpoint at
// Config.CheckpointPath, or NewIncremental when none exists. It is called
// once per ingest-loop start, so a supervisor restart re-reads whatever
// the crashed loop last checkpointed. The Incremental must be Lenient:
// the collector quarantines corrupt and late hours through the lenient
// fault path.
type Opener func() (*correlate.Incremental, error)

// eventBuffer is the capacity of the event channel between the tailer and
// the ingest loop: the backpressure bound. A full channel blocks the tailer.
// 64 full batches (≈ 6 MiB of records) let the tailer decode ahead while a
// seal commits, and bound what a stalled loop holds.
const eventBuffer = 64

// Stats is a snapshot of collector counters. Counters are cumulative
// across supervisor restarts; gauges (OpenWindows, MaxHour, Watermark)
// reflect the current ingest loop.
type Stats struct {
	RecordsIngested    uint64
	BatchesIngested    uint64
	WindowsSealed      int
	WindowsPartial     int
	HoursQuarantined   int
	LateHours          int
	LateRecords        uint64
	LateBytes          int64
	ShedBatches        uint64 // always 0: the tailer blocks, never sheds; tools/perfledger reports it
	Restarts           int
	AlertsEmitted      uint64
	AlertsSuppressed   uint64
	CheckpointWrites   uint64
	CheckpointFailures uint64
	// CheckpointBytes is the bytes all commits wrote to the checkpoint
	// file; CheckpointCompactions counts the commits that rewrote it whole
	// rather than appending a frame (always including the first of each
	// ingest-loop start); CheckpointAppendFailures counts frame appends
	// that failed and fell back to a rewrite.
	CheckpointBytes          uint64
	CheckpointCompactions    uint64
	CheckpointAppendFailures uint64
	MaxHour                  int
	Watermark                int
	OpenWindows              int
	// Faults is the incremental engine's own fault list — every hour given
	// up on, with its cause, including those a resumed checkpoint carried —
	// as of the last ingest-loop start or quarantine. Read-only.
	Faults []correlate.HourFault
}

// Collector is the streaming ingestion engine: one tailer goroutine
// feeding one ingest-loop goroutine through a bounded channel, supervised
// by Run.
type Collector struct {
	cfg  Config
	open Opener
	hub  *Hub

	mu    sync.Mutex
	stats Stats

	// failpoint, when set by a test before Run, is invoked at the named
	// crash points of the seal sequence ("sealed", "alerted",
	// "checkpointed", "quarantined"); a returned error kills the ingest
	// loop there, exactly like a crash, and the supervisor takes over.
	failpoint func(point string, hour int) error
	// ckptFS, when set by a test before Run, replaces the file system under
	// checkpoint commits (internal/faultfs fails its k-th operation).
	ckptFS wal.FS
	// batchLen, when set by a test before Run, replaces flowtuple.BatchSize
	// as the most records one event carries.
	batchLen int
}

// New validates the configuration and builds a Collector. hub may be nil
// for a private, memory-only alert hub.
func New(cfg Config, open Opener, hub *Hub) (*Collector, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("stream: no dataset directory")
	}
	if open == nil {
		return nil, fmt.Errorf("stream: nil opener")
	}
	if hub == nil {
		hub = NewHub(nil)
	}
	return &Collector{cfg: cfg.withDefaults(), open: open, hub: hub}, nil
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Run tails the dataset until ctx is done (clean stop, nil) or — in Drain
// mode — until a sweep finds nothing left to do. A crashed ingest loop
// (error or panic) is restarted under the Supervisor policy with jittered
// backoff, re-opening the incremental state from the checkpoint; when the
// restart budget is exhausted the last error is returned.
func (c *Collector) Run(ctx context.Context) error {
	restarts := 0
	for {
		err := c.runOnce(ctx)
		if ctx.Err() != nil {
			return nil // interrupted: a clean stop, state is checkpointed
		}
		if err == nil {
			return nil // drained
		}
		if !c.cfg.Supervisor.ShouldRetry(err, restarts) {
			return err
		}
		restarts++
		c.mu.Lock()
		c.stats.Restarts++
		c.mu.Unlock()
		fmt.Fprintf(os.Stderr, "stream: ingest loop crashed (%v); restart %d/%d\n",
			err, restarts, c.cfg.Supervisor.MaxRetries)
		if pipeline.Sleep(ctx, c.cfg.Supervisor.JitteredDelay(restarts)) != nil {
			return nil
		}
	}
}

// ingest is the per-run (per-restart) state of the ingest loop.
type ingest struct {
	inc      *correlate.Incremental
	tracker  *campaign.Tracker          // nil without Config.Campaigns
	ckpt     *resultstore.CheckpointLog // nil without a CheckpointPath
	windows  map[int]*correlate.Window
	sealed   map[int]bool // ingested, quarantined, or window sealed
	maxHour  int
	bsHours  []float64 // positive backscatter hours, for the DoS median
	finished bool
}

func (st *ingest) watermark(lateness int) int { return st.maxHour - lateness }

func (c *Collector) runOnce(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: ingest loop panicked: %v", r)
		}
	}()
	inc, err := c.open()
	if err != nil {
		return fmt.Errorf("stream: open incremental: %w", err)
	}
	st := &ingest{
		inc:     inc,
		windows: make(map[int]*correlate.Window),
		sealed:  make(map[int]bool),
		maxHour: -1,
	}
	if c.cfg.Campaigns {
		// Bulk-loaded from whatever the checkpoint restored, so a resumed
		// loop's tracker is the one an uninterrupted loop would hold.
		st.tracker = campaign.NewTracker(inc.Result(), campaign.DefaultConfig())
	}
	if c.cfg.CheckpointPath != "" {
		st.ckpt = resultstore.NewCheckpointLog(c.cfg.CheckpointPath, c.ckptFS)
		defer st.ckpt.Close()
	}
	// Hours settled in the checkpoint are never re-tailed, and the
	// watermark resumes at least past them.
	skip := make(map[int]bool)
	for _, h := range inc.IngestedHours() {
		st.sealed[h], skip[h] = true, true
		if h > st.maxHour {
			st.maxHour = h
		}
	}
	for _, h := range inc.QuarantinedHours() {
		st.sealed[h], skip[h] = true, true
		if h > st.maxHour {
			st.maxHour = h
		}
	}
	st.bsHours = rebuildBsHours(inc)
	c.mu.Lock()
	c.stats.MaxHour = st.maxHour
	c.stats.Watermark = st.watermark(c.cfg.Lateness)
	c.stats.OpenWindows = 0
	c.stats.Faults = inc.Stats().Faults
	c.mu.Unlock()

	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	events := make(chan event, eventBuffer)
	batchLen := flowtuple.BatchSize
	if c.batchLen > 0 {
		batchLen = c.batchLen
	}
	tl := newTailer(c.cfg.Dir, batchLen, c.cfg.Poll, skip, events)
	done := make(chan struct{})
	var tailErr error
	go func() {
		defer close(done)
		tailErr = tl.run(tctx)
	}()

	for {
		select {
		case ev := <-events:
			if err := c.handle(st, ev); err != nil {
				cancel()
				<-done
				return err
			}
			if st.finished {
				cancel()
				<-done
				return nil
			}
		case <-done:
			for {
				select {
				case ev := <-events:
					if err := c.handle(st, ev); err != nil {
						return err
					}
					if st.finished {
						return nil
					}
				default:
					return tailErr
				}
			}
		case <-ctx.Done():
			cancel()
			<-done
			return ctx.Err()
		}
	}
}

func (c *Collector) handle(st *ingest, ev event) error {
	switch ev.kind {
	case evRecords:
		if err := c.observeHour(st, ev.hour); err != nil {
			return err
		}
		if st.sealed[ev.hour] || ev.hour < st.watermark(c.cfg.Lateness) {
			return c.late(st, ev.hour, ev.recs)
		}
		w := st.windows[ev.hour]
		if w == nil {
			var err error
			if w, err = st.inc.OpenWindow(ev.hour); err != nil {
				return err
			}
			st.windows[ev.hour] = w
			c.mu.Lock()
			c.stats.OpenWindows = len(st.windows)
			c.mu.Unlock()
		}
		if err := w.Feed(ev.recs); err != nil {
			return err
		}
		c.mu.Lock()
		c.stats.RecordsIngested += uint64(len(ev.recs))
		c.stats.BatchesIngested++
		c.mu.Unlock()
		return nil

	case evComplete:
		if err := c.observeHour(st, ev.hour); err != nil {
			return err
		}
		if st.sealed[ev.hour] {
			return nil // completed after a watermark partial-seal
		}
		w := st.windows[ev.hour]
		if w == nil {
			if ev.hour < st.watermark(c.cfg.Lateness) {
				return c.late(st, ev.hour, nil) // a whole hour arriving late
			}
			var err error
			if w, err = st.inc.OpenWindow(ev.hour); err != nil {
				return err // an empty hour still seals (and checkpoints)
			}
		}
		return c.seal(st, ev.hour, w, false)

	case evCorrupt:
		if err := c.observeHour(st, ev.hour); err != nil {
			return err
		}
		if st.sealed[ev.hour] {
			return nil // damage after the seal; nothing left to protect
		}
		return c.quarantine(st, ev.hour, ev.err)

	case evLateGrowth:
		c.mu.Lock()
		c.stats.LateBytes += ev.bytes
		c.mu.Unlock()
		return nil

	case evSweep:
		if c.cfg.Drain && !ev.progressed {
			for _, h := range sortedHours(st.windows) {
				if err := c.seal(st, h, st.windows[h], true); err != nil {
					return err
				}
			}
			st.finished = true
		}
		return nil
	}
	return fmt.Errorf("stream: unknown event kind %d", ev.kind)
}

// observeHour advances the watermark for a newly seen hour, partial-
// sealing every open window it passes, in hour order.
func (c *Collector) observeHour(st *ingest, h int) error {
	if h <= st.maxHour {
		return nil
	}
	st.maxHour = h
	w := st.watermark(c.cfg.Lateness)
	c.mu.Lock()
	c.stats.MaxHour = h
	c.stats.Watermark = w
	c.mu.Unlock()
	for _, hh := range sortedHours(st.windows) {
		if hh >= w {
			break
		}
		if err := c.seal(st, hh, st.windows[hh], true); err != nil {
			return err
		}
	}
	return nil
}

// seal closes a window with the crash-safe ordering: finalize into the
// result, journal the window's alerts (durable, deduplicated), then
// checkpoint. partial marks a watermark- or drain-forced seal of an hour
// whose file had no footer yet.
func (c *Collector) seal(st *ingest, h int, w *correlate.Window, partial bool) error {
	ws, err := w.Seal()
	if err != nil {
		return err
	}
	delete(st.windows, h)
	st.sealed[h] = true
	c.mu.Lock()
	c.stats.WindowsSealed++
	if partial {
		c.stats.WindowsPartial++
	}
	c.stats.OpenWindows = len(st.windows)
	c.mu.Unlock()
	if err := c.fail("sealed", h); err != nil {
		return err
	}
	if err := c.emitAlerts(st, ws); err != nil {
		return err
	}
	if err := c.fail("alerted", h); err != nil {
		return err
	}
	c.checkpoint(st)
	return c.fail("checkpointed", h)
}

// quarantine abandons an hour through the incremental engine's lenient
// fault path and persists that decision.
func (c *Collector) quarantine(st *ingest, h int, cause error) error {
	if w := st.windows[h]; w != nil {
		w.Abort()
		delete(st.windows, h)
	}
	st.inc.FailHour(h, cause)
	st.sealed[h] = true
	c.mu.Lock()
	c.stats.OpenWindows = len(st.windows)
	if st.inc.Quarantined(h) {
		c.stats.HoursQuarantined++
	}
	c.stats.Faults = st.inc.Stats().Faults
	c.mu.Unlock()
	c.checkpoint(st)
	return c.fail("quarantined", h)
}

// late handles records (possibly none) for an hour behind the watermark:
// the hour is quarantined on first late appearance, and the records are
// counted — never silently dropped.
func (c *Collector) late(st *ingest, h int, recs []flowtuple.Record) error {
	if !st.sealed[h] {
		c.mu.Lock()
		c.stats.LateHours++
		c.mu.Unlock()
		if err := c.quarantine(st, h, ErrLateArrival); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.stats.LateRecords += uint64(len(recs))
	c.mu.Unlock()
	return nil
}

// emitAlerts derives and journals a sealed window's alerts. Derivation is
// deterministic given the checkpointed state, which is what makes resume
// re-derivation + key dedup add up to exactly-once.
func (c *Collector) emitAlerts(st *ingest, ws correlate.WindowStats) error {
	for _, id := range ws.Fresh {
		if err := c.emit(Alert{
			Kind: KindNewDevice, Key: fmt.Sprintf("device/%d", id),
			Hour: ws.Hour, Device: id,
		}); err != nil {
			return err
		}
	}
	if c.cfg.DoSAlarm > 0 && ws.Backscatter > 0 {
		if med := median(st.bsHours); med > 0 && float64(ws.Backscatter) > c.cfg.DoSAlarm*med {
			if err := c.emit(Alert{
				Kind: KindDoSSpike, Key: fmt.Sprintf("dos/h%d", ws.Hour),
				Hour: ws.Hour, Packets: ws.Backscatter,
				Ratio:  float64(ws.Backscatter) / med,
				Device: dominantVictim(st.inc.Result(), ws.Hour),
			}); err != nil {
				return err
			}
		}
		st.bsHours = append(st.bsHours, float64(ws.Backscatter))
	}
	if st.tracker != nil {
		st.tracker.Observe(st.inc.Result(), ws.TCPPorts, ws.TCPGained)
		return c.emitCampaigns(st.tracker.Campaigns(), ws.Hour)
	}
	return nil
}

// emitCampaigns journals one new-campaign alert per campaign; the journal's
// key dedup keeps the ones whose port set has not alerted before.
func (c *Collector) emitCampaigns(camps []campaign.Campaign, hour int) error {
	for _, cp := range camps {
		if err := c.emit(Alert{
			Kind: KindNewCampaign, Key: campaignKey(cp.Ports),
			Hour: hour, Devices: cp.Devices, Ports: cp.Ports,
			Packets: cp.Packets,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (c *Collector) emit(a Alert) error {
	_, emitted, err := c.hub.Emit(a)
	if err != nil {
		return err // the journal is the durability contract; crash and retry
	}
	c.mu.Lock()
	if emitted {
		c.stats.AlertsEmitted++
	} else {
		c.stats.AlertsSuppressed++
	}
	c.mu.Unlock()
	return nil
}

// checkpoint commits the incremental state: one counted durable commit
// per call, appended or compacted as the log decides. Failures are counted
// and logged, not fatal: the next seal's commit rewrites the file, and
// until one lands a crash merely replays more work.
func (c *Collector) checkpoint(st *ingest) {
	if st.ckpt == nil {
		return
	}
	done, err := st.ckpt.Commit(st.inc)
	c.mu.Lock()
	if err != nil {
		c.stats.CheckpointFailures++
	} else {
		c.stats.CheckpointWrites++
	}
	c.stats.CheckpointBytes += uint64(done.Bytes)
	if done.Compacted {
		c.stats.CheckpointCompactions++
	}
	if done.AppendFailed {
		c.stats.CheckpointAppendFailures++
	}
	c.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stream: checkpoint failed: %v\n", err)
	}
}

func (c *Collector) fail(point string, hour int) error {
	if c.failpoint == nil {
		return nil
	}
	return c.failpoint(point, hour)
}

// rebuildBsHours reconstructs the DoS-median history from the checkpointed
// result: one entry per ingested hour with positive backscatter — exactly
// what the live loop appended, so an alarm decision after resume matches
// the uninterrupted run (the median is order-independent).
func rebuildBsHours(inc *correlate.Incremental) []float64 {
	bsIdx := classify.Backscatter.Index()
	res := inc.Result()
	var bs []float64
	for _, h := range inc.IngestedHours() {
		hs := res.Hourly[h]
		var v uint64
		for ci := range hs.PerCat {
			v += hs.PerCat[ci].Packets[bsIdx]
		}
		if v > 0 {
			bs = append(bs, float64(v))
		}
	}
	return bs
}

func sortedHours(windows map[int]*correlate.Window) []int {
	hours := make([]int, 0, len(windows))
	for h := range windows {
		hours = append(hours, h)
	}
	sort.Ints(hours)
	return hours
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dup := append([]float64(nil), xs...)
	sort.Float64s(dup)
	if n := len(dup); n%2 == 1 {
		return dup[n/2]
	} else {
		return (dup[n/2-1] + dup[n/2]) / 2
	}
}

// dominantVictim finds the device with the most backscatter in the hour.
// Ties break to the lowest device ID, and the sentinel -1 (never a valid
// ID) is returned when no device has backscatter, so a device that merely
// sorts first can never be misreported as the victim.
func dominantVictim(res *correlate.Result, hour int) int {
	bestID := -1
	var bestPkts uint64
	for id, ds := range res.Devices {
		v := ds.BackscatterHourly[hour]
		if v > bestPkts || (v == bestPkts && v > 0 && id < bestID) {
			bestID, bestPkts = id, v
		}
	}
	return bestID
}

// campaignKey names a campaign by its port set, ascending. Campaign.Ports
// is ordered by weight, and a cohort whose ports swap rank between two
// windows is still the same cohort: it must not alert twice.
func campaignKey(ports []uint16) string {
	sorted := slices.Clone(ports)
	slices.Sort(sorted)
	parts := make([]string, len(sorted))
	for i, p := range sorted {
		parts[i] = fmt.Sprint(p)
	}
	return "campaign/p" + strings.Join(parts, "-")
}
