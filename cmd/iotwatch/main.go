// Command iotwatch tails a dataset directory and indexes newly arriving
// hourly flowtuple files in near real time — the operational capability the
// paper's Discussion proposes. Each new hour prints the newly discovered
// compromised devices and a one-line traffic summary; an optional DoS alarm
// fires when an hour's backscatter exceeds a multiple of the running
// median.
//
// Ingestion is fault tolerant: an hour file that ends early (a non-atomic
// producer may still be writing it) is retried with exponential backoff up
// to -retries attempts before being quarantined; structurally corrupt
// hours are quarantined immediately. Neither ever aborts the watch, and
// the summary line reports the retried and quarantined counts. The
// retry/backoff budget is a pipeline.RetryPolicy and the correlator comes
// from the shared core pipeline config (Config.Lenient), so batch and
// watch modes cannot drift.
//
// With -checkpoint-dir the watcher commits its incremental state to a
// result store checkpoint (internal/resultstore: a base plus one appended
// delta frame per commit, compacted as it grows) after every ingested or
// quarantined hour, and resumes from it at startup: a killed watcher
// restarts exactly where it stopped, re-reading nothing, and converges on
// the same state an uninterrupted run would have reached. An unreadable or
// mismatched checkpoint warns and cold-starts; a checkpoint write failure
// warns and keeps watching.
//
// With -follow the watcher switches to the streaming collector
// (internal/stream): record batches flow into event-time windows as files
// grow — no waiting for hour boundaries — sealed by a low-watermark
// (-lateness hours behind the newest hour seen). Sealed windows emit
// low-latency alerts (new compromised devices, DoS spikes, new campaigns)
// to stdout, to a crash-safe journal (-alert-log, defaulting next to the
// checkpoint), and optionally over HTTP (-alerts-addr: long-poll /alerts,
// SSE /alerts/stream). Alerts are exactly-once across kill-and-restart:
// the journal dedups by key and each sealed window checkpoints before the
// watcher moves on. A crashed ingest loop is restarted under the same
// retry policy, resuming from the checkpoint.
//
// Usage:
//
//	iotwatch -data DIR [-poll 2s] [-once] [-alarm 8] [-retries 3] [-backoff 500ms]
//	         [-checkpoint-dir DIR] [-stage-report FILE|-]
//	         [-follow] [-lateness 1] [-alert-log FILE] [-alerts-addr HOST:PORT]
//
// With -once the watcher ingests whatever is present (including retry
// resolution) and exits (useful for scripting and tests); otherwise it
// polls until interrupted. In -follow mode -once drains: the collector
// exits once a full sweep finds nothing new, force-sealing open windows.
// Either way the watch runs as a stage of the pipeline engine: an
// interrupt cancels the ingest loop at the next hour boundary, prints the
// summary, and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"iotscope/internal/classify"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iotwatch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iotwatch", flag.ContinueOnError)
	var (
		data        = fs.String("data", "", "dataset directory (required)")
		poll        = fs.Duration("poll", 2*time.Second, "directory poll interval")
		once        = fs.Bool("once", false, "ingest what is present, then exit")
		alarm       = fs.Float64("alarm", 8, "DoS alarm threshold (x median backscatter hour; 0 disables)")
		retries     = fs.Int("retries", 3, "retry budget per truncated hour before quarantine")
		backoff     = fs.Duration("backoff", 500*time.Millisecond, "base retry backoff (doubles per attempt)")
		ckptDir     = fs.String("checkpoint-dir", "", "persist incremental state here after every hour and resume from it at startup")
		stageReport = fs.String("stage-report", "", "write per-stage pipeline metrics JSON to this file (- = stderr)")
		follow      = fs.Bool("follow", false, "stream record batches as files grow (windowed ingest with watermarks and live alerts)")
		lateness    = fs.Int("lateness", 1, "watermark lateness in hours for -follow windows")
		alertLog    = fs.String("alert-log", "", "alert journal path for -follow (default <checkpoint-dir>/alerts.jsonl)")
		alertsAddr  = fs.String("alerts-addr", "", "serve -follow alerts over HTTP on this address (long-poll /alerts, SSE /alerts/stream)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	if *retries < 0 || *backoff < 0 {
		return fmt.Errorf("-retries and -backoff must be non-negative")
	}
	if *lateness < 0 {
		return fmt.Errorf("-lateness must be non-negative")
	}
	ds, err := core.Open(*data)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Lenient = true
	if *follow {
		return runFollow(ds, cfg, followOpts{
			ckptDir:     *ckptDir,
			alertLog:    *alertLog,
			addr:        *alertsAddr,
			stageReport: *stageReport,
			poll:        *poll,
			backoff:     *backoff,
			drain:       *once,
			alarm:       *alarm,
			lateness:    *lateness,
			retries:     *retries,
		})
	}
	inc, ckptPath, err := openIncremental(ds, cfg, *ckptDir)
	if err != nil {
		return err
	}

	w := &watcher{
		dir: ds.Dir, inv: ds.Inventory, inc: inc,
		alarm: *alarm,
		policy: pipeline.RetryPolicy{
			MaxRetries:  *retries,
			BaseBackoff: *backoff,
			Retryable:   correlate.IsRetryable,
		},
		ingested: make(map[int]bool),
		attempts: make(map[int]int),
		nextTry:  make(map[int]time.Time),
	}
	if ckptPath != "" {
		w.ckpt = resultstore.NewCheckpointLog(ckptPath, nil)
		defer w.ckpt.Close()
	}
	// A resumed watcher must not re-ingest hours the checkpoint already
	// holds — re-ingestion would double-count and Incremental rejects it.
	for _, h := range inc.IngestedHours() {
		w.ingested[h] = true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := pipeline.New("watch",
		pipeline.Func("watch-ingest", func(ctx context.Context, st *pipeline.State) error {
			return w.watch(ctx, *once, *poll)
		}),
	).Run(ctx, nil)
	if emitErr := pipeline.EmitReport(rep, *stageReport); emitErr != nil && err == nil {
		err = emitErr
	}
	return err
}

// checkpointFile is the artifact name inside -checkpoint-dir.
const checkpointFile = "checkpoint.irs"

// openIncremental builds the incremental correlator, resuming from a
// checkpoint when one is configured and usable. Resume failures are never
// fatal: an absent file is a first run, an unreadable or mismatched one
// warns and cold-starts — the watch must come up either way.
func openIncremental(ds *core.Dataset, cfg core.Config, dir string) (*correlate.Incremental, string, error) {
	if dir == "" {
		inc, err := ds.NewIncremental(cfg)
		return inc, "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, checkpointFile)
	cp, err := resultstore.ReadCheckpoint(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "iotwatch: checkpoint unusable, cold start: %v\n", err)
		}
		inc, err := ds.NewIncremental(cfg)
		return inc, path, err
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotwatch: checkpoint rejected, cold start: %v\n", err)
		inc, err := ds.NewIncremental(cfg)
		return inc, path, err
	}
	fmt.Fprintf(os.Stderr, "iotwatch: resumed from %s (%d hours ingested, %d quarantined)\n",
		path, inc.HoursIngested(), inc.Stats().HoursQuarantined)
	return inc, path, nil
}

type watcher struct {
	dir    string
	inv    *devicedb.Inventory
	inc    *correlate.Incremental
	alarm  float64
	ckpt   *resultstore.CheckpointLog // nil without -checkpoint-dir
	policy pipeline.RetryPolicy

	ingested map[int]bool
	attempts map[int]int
	nextTry  map[int]time.Time
	bsHours  []float64
}

// watch is the pipeline stage: sweep the directory for new hours until
// interrupted (or, with once, until nothing is pending). An interrupt is a
// normal shutdown — the summary prints and the stage completes cleanly —
// so the engine only reports failure for real ingest errors.
func (w *watcher) watch(ctx context.Context, once bool, poll time.Duration) error {
	defer w.meter(ctx)
	for {
		n, err := w.sweep(ctx)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Println()
				w.summary()
				return nil
			}
			return err
		}
		if once {
			if n == 0 {
				wait, pending := w.nextRetryWait()
				if !pending {
					w.summary()
					return nil
				}
				if err := pipeline.Sleep(ctx, wait); err != nil {
					fmt.Println()
					w.summary()
					return nil
				}
			}
			continue
		}
		if err := pipeline.Sleep(ctx, poll); err != nil {
			fmt.Println()
			w.summary()
			return nil
		}
	}
}

// meter records the watch workload in the stage's metrics.
func (w *watcher) meter(ctx context.Context) {
	res := w.inc.Result()
	st := w.inc.Stats()
	m := pipeline.Meter(ctx)
	var iot uint64
	for i := range res.Hourly {
		iot += res.Hourly[i].RecordsIoT
	}
	m.RecordsIn = res.Background.Records + iot
	m.RecordsOut = uint64(len(res.Devices))
	m.Retries = st.HoursRetried
	m.QuarantinedHours = st.HoursQuarantined
}

// sweep ingests any hour files not yet seen, in order, returning how many
// were processed. Retryable failures leave the hour pending (with the
// policy's exponential backoff); exhausted or permanent failures
// quarantine it. Either way the sweep keeps going: a bad hour never aborts
// the watch. Cancellation stops the sweep at the next hour boundary.
func (w *watcher) sweep(ctx context.Context) (int, error) {
	hours, err := flowtuple.DatasetHours(w.dir)
	if err != nil {
		return 0, err
	}
	processed := 0
	now := time.Now()
	for _, h := range hours {
		if w.ingested[h] || w.inc.Quarantined(h) {
			continue
		}
		if t, ok := w.nextTry[h]; ok && now.Before(t) {
			continue
		}
		fresh, err := w.inc.Ingest(ctx, w.dir, h)
		if err != nil {
			if ctx.Err() != nil {
				return processed, err
			}
			if w.policy.ShouldRetry(err, w.attempts[h]) {
				w.attempts[h]++
				delay := w.policy.JitteredDelay(w.attempts[h])
				w.nextTry[h] = now.Add(delay)
				fmt.Printf("[hour %3d] incomplete, retry %d/%d in %s: %v\n",
					h, w.attempts[h], w.policy.MaxRetries, delay, err)
				continue
			}
			w.inc.Quarantine(h, err)
			delete(w.nextTry, h)
			fmt.Printf("[hour %3d] QUARANTINED after %d attempts: %v\n", h, w.attempts[h]+1, err)
			w.checkpoint()
			continue
		}
		w.ingested[h] = true
		delete(w.nextTry, h)
		processed++
		w.report(h, fresh)
		w.checkpoint()
	}
	return processed, nil
}

// checkpoint commits the incremental state (append-or-compact, see
// resultstore.CheckpointLog). The quarantine decision is checkpointed too:
// a resumed watcher must not burn a fresh retry budget on an hour already
// given up on. A write failure warns but never aborts the watch — losing a
// checkpoint costs a re-ingest after a crash, aborting costs the watch.
func (w *watcher) checkpoint() {
	if w.ckpt == nil {
		return
	}
	if _, err := w.ckpt.Commit(w.inc); err != nil {
		fmt.Fprintf(os.Stderr, "iotwatch: checkpoint write failed: %v\n", err)
	}
}

// nextRetryWait returns how long until the earliest pending retry is due,
// and whether any hour is still awaiting one.
func (w *watcher) nextRetryWait() (time.Duration, bool) {
	var earliest time.Time
	for h, t := range w.nextTry {
		if w.ingested[h] || w.inc.Quarantined(h) {
			continue
		}
		if earliest.IsZero() || t.Before(earliest) {
			earliest = t
		}
	}
	if earliest.IsZero() {
		return 0, false
	}
	wait := time.Until(earliest)
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait, true
}

func (w *watcher) report(hour int, fresh []int) {
	res := w.inc.Result()
	hs := res.Hourly[hour]
	var pkts, bs uint64
	for ci := range hs.PerCat {
		for _, v := range hs.PerCat[ci].Packets {
			pkts += v
		}
		bs += hs.PerCat[ci].Packets[classify.Backscatter.Index()]
	}
	fmt.Printf("[hour %3d] %8d IoT pkts, %5d backscatter, %3d new devices (total %d)\n",
		hour, pkts, bs, len(fresh), len(res.Devices))
	for _, id := range fresh {
		d := w.inv.At(id)
		tag := d.Type.String()
		if d.Category == devicedb.CPS && len(d.Services) > 0 {
			tag = d.Services[0]
		}
		fmt.Printf("    new: device %d (%s, %s, %s)\n", id, d.Category, tag, d.Country)
	}
	// DoS alarm against the running median of positive backscatter hours.
	if w.alarm > 0 && bs > 0 {
		if med := median(w.bsHours); med > 0 && float64(bs) > w.alarm*med {
			if top, share := dominantVictim(res, hour); top >= 0 {
				d := w.inv.At(top)
				fmt.Printf("    ALARM: backscatter %d = %.1fx median; dominant victim device %d (%s in %s, %.0f%% of hour)\n",
					bs, float64(bs)/med, top, d.Category, d.Country, 100*share)
			}
		}
		w.bsHours = append(w.bsHours, float64(bs))
	}
}

func (w *watcher) summary() {
	res := w.inc.Result()
	st := w.inc.Stats()
	fmt.Printf("watched %d hours: %d devices inferred, %s IoT packets, %d background sources (%d retried, %d quarantined)\n",
		w.inc.HoursIngested(), len(res.Devices),
		fmt.Sprint(res.TotalIoTPackets()), res.Background.Sources,
		st.HoursRetried, st.HoursQuarantined)
	for _, f := range st.Faults {
		fmt.Printf("    quarantined hour %d: %v\n", f.Hour, f.Err)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dup := append([]float64(nil), xs...)
	sort.Float64s(dup)
	return dup[len(dup)/2]
}

// dominantVictim finds the device with the most backscatter in the hour.
// Ties break to the lowest device ID, and the sentinel -1 (never a valid
// ID) is returned when no device has backscatter, so a device that merely
// sorts first can never be misreported as the victim.
func dominantVictim(res *correlate.Result, hour int) (int, float64) {
	bestID := -1
	var bestPkts, total uint64
	for id, ds := range res.Devices {
		v := ds.BackscatterHourly[hour]
		total += v
		if v == 0 {
			continue
		}
		if v > bestPkts || (v == bestPkts && id < bestID) {
			bestID, bestPkts = id, v
		}
	}
	if total == 0 {
		return -1, 0
	}
	return bestID, float64(bestPkts) / float64(total)
}
