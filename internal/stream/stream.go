// Package stream turns the batch correlator into a long-lived, crash-safe
// streaming collector: it tails arriving flowtuple data and feeds the
// incremental engine record-batch by record-batch, without waiting for
// hour boundaries.
//
// A collector runs three stages, each on its own goroutine: the tailer
// inflates and decodes the growing hour files; the window stage owns event
// time, feeds record batches into open windows and decides every seal,
// quarantine and late arrival; the ingest loop carries those decisions out
// — seal, alerts, journal, checkpoint — in the order they were made.
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
// Backpressure has one rule at each hand-off: a full channel blocks the
// sender. The tailer blocks on eventBuffer events, so its cursor never
// passes a record the window stage has not taken; the window stage blocks
// on the ingest loop, which holds at most one sealed window waiting.
//
// Crash safety is the seal ordering: seal (in memory) → alert journal
// append (one durable write of the window's alerts, deduplicated by key) →
// checkpoint commit (one fsynced delta frame appended to the checkpoint
// file, or the file rewritten whole when the frames would outgrow their
// base — see resultstore.CheckpointLog).
// A crash at any point resumes from the last commit, re-tails the unsealed
// hours, re-derives their alerts deterministically, and the journal's key
// dedup suppresses any alert that already became durable — alerts are
// exactly-once across kill-and-restart, and the resumed checkpoint
// converges to the state a never-killed run produces, byte-identical once
// re-encoded. A supervisor restarts a crashed ingest loop — stages and
// all — under pipeline.RetryPolicy with jittered backoff.
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
	"iotscope/internal/stats"
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
// the window stage: the backpressure bound on decoded records. A full
// channel blocks the tailer. 64 full batches (≈ 6 MiB of records) let the
// tailer decode ahead while the stage waits on a seal, and bound what a
// stalled stage holds.
const eventBuffer = 64

// Stats is a snapshot of collector counters. Counters are cumulative
// across supervisor restarts; gauges (OpenWindows, MaxHour, Watermark)
// reflect the current window stage.
type Stats struct {
	RecordsIngested  uint64
	BatchesIngested  uint64
	WindowsSealed    int
	WindowsPartial   int
	HoursQuarantined int
	LateHours        int
	LateRecords      uint64
	LateBytes        int64
	ShedBatches      uint64 // always 0: the tailer blocks, never sheds; tools/perfledger reports it
	Restarts         int
	AlertsEmitted    uint64
	AlertsSuppressed uint64
	// JournalAppends counts the alert batches that emitted anything: one
	// journal write and fsync per sealed window with a new alert key.
	JournalAppends     uint64
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

// Collector is the streaming ingestion engine: a tailer goroutine feeding
// a window-stage goroutine feeding an ingest-loop goroutine, through bounded
// channels, supervised by Run.
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
	inc     *correlate.Incremental
	tracker *campaign.Tracker          // nil without Config.Campaigns
	ckpt    *resultstore.CheckpointLog // nil without a CheckpointPath
}

// windowStage is the per-run state of the window stage: event time and
// accumulation. It shares nothing with the ingest loop but the decisions it
// sends, the window pool it draws from and the collector's counters.
type windowStage struct {
	c        *Collector
	inc      *correlate.Incremental // only DrawWindow is called on it
	maxHours int                    // hours in range: [0, maxHours)
	lateness int
	open     map[int]*correlate.Window
	sealed   map[int]bool // settled before this run, or decided by the stage
	maxHour  int
	out      chan<- decision
}

func (ws *windowStage) watermark() int { return ws.maxHour - ws.lateness }

// decKind classifies what the window stage asks of the ingest loop.
type decKind uint8

const (
	// decSeal hands over a window to seal; partial marks a watermark- or
	// drain-forced seal of an hour whose file had no footer yet.
	decSeal decKind = iota
	// decQuarantine gives up on an hour, for cause.
	decQuarantine
	// decLate counts records (possibly none) that surfaced behind the
	// watermark; first marks the hour's first late appearance, which
	// quarantines it.
	decLate
)

// decision is one step of the seal sequence the window stage has settled
// and the ingest loop carries out, in the order sent.
type decision struct {
	kind    decKind
	hour    int
	w       *correlate.Window // decSeal
	partial bool              // decSeal
	cause   error             // decQuarantine
	records int               // decLate
	first   bool              // decLate
}

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
	st := &ingest{inc: inc}
	if c.cfg.Campaigns {
		// Bulk-loaded from whatever the checkpoint restored, so a resumed
		// loop's tracker is the one an uninterrupted loop would hold.
		st.tracker = campaign.NewTracker(inc.Result(), campaign.DefaultConfig())
	}
	if c.cfg.CheckpointPath != "" {
		st.ckpt = resultstore.NewCheckpointLog(c.cfg.CheckpointPath, c.ckptFS)
		defer st.ckpt.Close()
	}
	decisions := make(chan decision, 1)
	ws := &windowStage{
		c:        c,
		inc:      inc,
		maxHours: inc.MaxHours(),
		lateness: c.cfg.Lateness,
		open:     make(map[int]*correlate.Window),
		sealed:   make(map[int]bool),
		maxHour:  -1,
		out:      decisions,
	}
	// Hours settled in the checkpoint are never re-tailed, and the
	// watermark resumes at least past them.
	skip := make(map[int]bool)
	for _, h := range slices.Concat(inc.IngestedHours(), inc.QuarantinedHours()) {
		ws.sealed[h], skip[h] = true, true
		ws.maxHour = max(ws.maxHour, h)
	}
	c.mu.Lock()
	c.stats.MaxHour = ws.maxHour
	c.stats.Watermark = ws.watermark()
	c.stats.OpenWindows = 0
	c.stats.Faults = inc.Stats().Faults
	c.mu.Unlock()

	tctx, cancel := context.WithCancel(ctx)
	events := make(chan event, eventBuffer)
	batchLen := flowtuple.BatchSize
	if c.batchLen > 0 {
		batchLen = c.batchLen
	}
	tl := newTailer(c.cfg.Dir, batchLen, c.cfg.Poll, skip, events)
	tailed := make(chan struct{})
	var tailErr error
	go func() {
		defer close(tailed)
		tailErr = tl.run(tctx)
	}()
	var stageErr error
	go func() {
		defer close(decisions)
		stageErr = ws.run(tctx, events, tailed, &tailErr)
	}()
	// However the loop ends, the stage stops, and every window it handed
	// over that the loop did not seal goes back to the pool.
	defer func() {
		cancel()
		for d := range decisions {
			if d.w != nil {
				d.w.Abort()
			}
		}
		<-tailed
	}()

	for {
		select {
		case d, ok := <-decisions:
			if !ok {
				return stageErr // nil: drained
			}
			if err := c.carry(st, d); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// carry executes one decision of the window stage on the ingest loop.
func (c *Collector) carry(st *ingest, d decision) error {
	switch d.kind {
	case decSeal:
		return c.seal(st, d.hour, d.w, d.partial)
	case decQuarantine:
		return c.quarantine(st, d.hour, d.cause)
	}
	if d.first { // decLate
		c.mu.Lock()
		c.stats.LateHours++
		c.mu.Unlock()
		if err := c.quarantine(st, d.hour, ErrLateArrival); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.stats.LateRecords += uint64(d.records)
	c.mu.Unlock()
	return nil
}

// run is the window stage: it takes the tailer's events, keeps event
// time, feeds record batches into open windows and decides every seal,
// quarantine and late arrival, which the ingest loop carries out. It ends
// nil once a drain has sealed everything, with the tailer's error once the
// tailer has stopped and its events are handled, or with ctx's. Every
// window still open when it ends is aborted.
func (ws *windowStage) run(ctx context.Context, events <-chan event, tailed <-chan struct{}, tailErr *error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: window stage panicked: %v", r)
		}
		for _, w := range ws.open {
			w.Abort()
		}
	}()
	for {
		select {
		case ev := <-events:
			if finished, err := ws.handle(ctx, ev); finished || err != nil {
				return err
			}
		case <-tailed:
			for {
				select {
				case ev := <-events:
					if finished, err := ws.handle(ctx, ev); finished || err != nil {
						return err
					}
				default:
					return *tailErr
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// handle applies one tailer event on the window stage; finished reports a
// completed drain.
func (ws *windowStage) handle(ctx context.Context, ev event) (finished bool, err error) {
	switch ev.kind {
	case evRecords:
		if err := ws.observeHour(ctx, ev.hour); err != nil {
			return false, err
		}
		if ws.sealed[ev.hour] || ev.hour < ws.watermark() {
			return false, ws.late(ctx, ev.hour, len(ev.recs))
		}
		w := ws.open[ev.hour]
		if w == nil {
			var err error
			if w, err = ws.draw(ev.hour); err != nil {
				return false, err
			}
			ws.open[ev.hour] = w
			ws.c.mu.Lock()
			ws.c.stats.OpenWindows = len(ws.open)
			ws.c.mu.Unlock()
		}
		if err := w.Feed(ev.recs); err != nil {
			return false, err
		}
		ws.c.mu.Lock()
		ws.c.stats.RecordsIngested += uint64(len(ev.recs))
		ws.c.stats.BatchesIngested++
		ws.c.mu.Unlock()
		return false, nil

	case evComplete:
		if err := ws.observeHour(ctx, ev.hour); err != nil {
			return false, err
		}
		if ws.sealed[ev.hour] {
			return false, nil // completed after a watermark partial-seal
		}
		w := ws.open[ev.hour]
		if w == nil {
			if ev.hour < ws.watermark() {
				return false, ws.late(ctx, ev.hour, 0) // a whole hour arriving late
			}
			var err error
			if w, err = ws.draw(ev.hour); err != nil {
				return false, err // an empty hour still seals (and checkpoints)
			}
		}
		return false, ws.seal(ctx, ev.hour, w, false)

	case evCorrupt:
		if err := ws.observeHour(ctx, ev.hour); err != nil {
			return false, err
		}
		if ws.sealed[ev.hour] {
			return false, nil // damage after the seal; nothing left to protect
		}
		return false, ws.quarantine(ctx, ev.hour, ev.err)

	case evLateGrowth:
		ws.c.mu.Lock()
		ws.c.stats.LateBytes += ev.bytes
		ws.c.mu.Unlock()
		return false, nil

	case evSweep:
		if !ws.c.cfg.Drain || ev.progressed {
			return false, nil
		}
		for _, h := range sortedHours(ws.open) {
			if err := ws.seal(ctx, h, ws.open[h], true); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("stream: unknown event kind %d", ev.kind)
}

// draw opens a window for an hour the stage has not settled. The stage
// cannot consult the incremental's bookkeeping, which the ingest loop
// writes, so it checks the range itself and Seal re-checks the rest.
func (ws *windowStage) draw(h int) (*correlate.Window, error) {
	if h < 0 || h >= ws.maxHours {
		return nil, fmt.Errorf("stream: hour %d outside [0, %d)", h, ws.maxHours)
	}
	return ws.inc.DrawWindow(h), nil
}

// observeHour advances the watermark for a newly seen hour, partial-
// sealing every open window it passes, in hour order.
func (ws *windowStage) observeHour(ctx context.Context, h int) error {
	if h <= ws.maxHour {
		return nil
	}
	ws.maxHour = h
	wm := ws.watermark()
	ws.c.mu.Lock()
	ws.c.stats.MaxHour = h
	ws.c.stats.Watermark = wm
	ws.c.mu.Unlock()
	for _, hh := range sortedHours(ws.open) {
		if hh >= wm {
			break
		}
		if err := ws.seal(ctx, hh, ws.open[hh], true); err != nil {
			return err
		}
	}
	return nil
}

// seal settles the hour on the stage and hands its window to the ingest
// loop to seal. The window is the loop's from here, or — if the stage
// stops before the loop takes it — aborted.
func (ws *windowStage) seal(ctx context.Context, h int, w *correlate.Window, partial bool) error {
	delete(ws.open, h)
	ws.sealed[h] = true
	ws.c.mu.Lock()
	ws.c.stats.OpenWindows = len(ws.open)
	ws.c.mu.Unlock()
	if err := ws.send(ctx, decision{kind: decSeal, hour: h, w: w, partial: partial}); err != nil {
		w.Abort()
		return err
	}
	return nil
}

// quarantine settles the hour on the stage, discarding whatever its window
// held, and asks the ingest loop to give it up.
func (ws *windowStage) quarantine(ctx context.Context, h int, cause error) error {
	if w := ws.open[h]; w != nil {
		w.Abort()
		delete(ws.open, h)
		ws.c.mu.Lock()
		ws.c.stats.OpenWindows = len(ws.open)
		ws.c.mu.Unlock()
	}
	ws.sealed[h] = true
	return ws.send(ctx, decision{kind: decQuarantine, hour: h, cause: cause})
}

// late handles records (possibly none) for an hour behind the watermark:
// the hour is quarantined on first late appearance, and the records are
// counted — never silently dropped.
func (ws *windowStage) late(ctx context.Context, h int, records int) error {
	first := !ws.sealed[h]
	ws.sealed[h] = true
	return ws.send(ctx, decision{kind: decLate, hour: h, records: records, first: first})
}

// send hands a decision to the ingest loop, blocking while the loop is
// busy: the hand-off holds at most one decision, so at most one sealed
// window — megabytes of scratch — waits between the stage and the loop.
func (ws *windowStage) send(ctx context.Context, d decision) error {
	select {
	case ws.out <- d:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// seal closes a window on the ingest loop with the crash-safe ordering:
// finalize into the result, journal the window's alerts (one durable,
// deduplicated append), then checkpoint.
func (c *Collector) seal(st *ingest, h int, w *correlate.Window, partial bool) error {
	ws, err := w.Seal()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.WindowsSealed++
	if partial {
		c.stats.WindowsPartial++
	}
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
	st.inc.FailHour(h, cause)
	c.mu.Lock()
	if st.inc.Quarantined(h) {
		c.stats.HoursQuarantined++
	}
	c.stats.Faults = st.inc.Stats().Faults
	c.mu.Unlock()
	c.checkpoint(st)
	return c.fail("quarantined", h)
}

// emitAlerts derives a sealed window's alerts — new-device, dos-spike,
// new-campaign, in that order — and journals them as one batch.
// Derivation is deterministic given the checkpointed state, which is what
// makes resume re-derivation + key dedup add up to exactly-once.
func (c *Collector) emitAlerts(st *ingest, ws correlate.WindowStats) error {
	res := st.inc.Result()
	var batch []Alert
	for _, id := range ws.Fresh {
		batch = append(batch, Alert{
			Kind: KindNewDevice, Key: fmt.Sprintf("device/%d", id),
			Hour: ws.Hour, Device: id,
		})
	}
	if c.cfg.DoSAlarm > 0 && ws.Backscatter > 0 {
		// The history is the positive hours sealed before this one; hours
		// not yet sealed are zero in the series, and the median ignores order.
		var prior []float64
		for h, v := range res.HourlyClassSeries(classify.Backscatter, 0) {
			if v > 0 && h != ws.Hour {
				prior = append(prior, v)
			}
		}
		if med := stats.Quantile(prior, 0.5); med > 0 && float64(ws.Backscatter) > c.cfg.DoSAlarm*med {
			batch = append(batch, Alert{
				Kind: KindDoSSpike, Key: fmt.Sprintf("dos/h%d", ws.Hour),
				Hour: ws.Hour, Packets: ws.Backscatter,
				Ratio:  float64(ws.Backscatter) / med,
				Device: dominantVictim(res, ws.Hour),
			})
		}
	}
	if st.tracker != nil {
		st.tracker.Observe(res, ws.TCPPorts, ws.TCPGained)
		batch = append(batch, campaignAlerts(st.tracker.Campaigns(), ws.Hour)...)
	}
	return c.journal(batch)
}

// campaignAlerts derives one new-campaign alert per campaign; the journal's
// key dedup keeps the ones whose port set has not alerted before.
func campaignAlerts(camps []campaign.Campaign, hour int) []Alert {
	out := make([]Alert, len(camps))
	for i, cp := range camps {
		out[i] = Alert{
			Kind: KindNewCampaign, Key: campaignKey(cp.Ports),
			Hour: hour, Devices: cp.Devices, Ports: cp.Ports,
			Packets: cp.Packets,
		}
	}
	return out
}

// journal emits a batch through the hub: one durable append when any of its
// keys is new, then publication.
func (c *Collector) journal(batch []Alert) error {
	if len(batch) == 0 {
		return nil
	}
	emitted, err := c.hub.EmitBatch(batch)
	if err != nil {
		return err // the journal is the durability contract; crash and retry
	}
	c.mu.Lock()
	c.stats.AlertsEmitted += uint64(len(emitted))
	c.stats.AlertsSuppressed += uint64(len(batch) - len(emitted))
	if len(emitted) > 0 {
		c.stats.JournalAppends++
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

func sortedHours(windows map[int]*correlate.Window) []int {
	hours := make([]int, 0, len(windows))
	for h := range windows {
		hours = append(hours, h)
	}
	sort.Ints(hours)
	return hours
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
