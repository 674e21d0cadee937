// Command iotwatch follows a dataset directory and indexes arriving hourly
// flowtuple files in near real time — the operational capability the
// paper's Discussion proposes. It runs the streaming collector
// (internal/stream): record batches flow into event-time windows as files
// grow — no waiting for hour boundaries — and a window is sealed when its
// file's footer is read or when the low watermark (-lateness hours behind
// the newest hour seen) passes it.
//
// Sealed windows emit low-latency alerts — new compromised devices, DoS
// spikes with their dominant victim, new scan campaigns — to stdout, to a
// crash-safe journal (-alert-log, defaulting next to the checkpoint), and
// optionally over HTTP (-alerts-addr: long-poll /alerts, SSE
// /alerts/stream). That listener is the one HTTP alert feed; it has no
// authentication, so bind it to loopback.
//
// Ingestion is fault tolerant and never aborts the watch: a structurally
// corrupt hour is quarantined at once; an hour file that ends early (a
// non-atomic producer may still be writing it) is tailed, and if it never
// completes its readable prefix is sealed as a partial window; an hour that
// first appears behind the watermark is quarantined as a late arrival. The
// exit summary names every quarantined hour with its reason. The correlator
// comes from the shared core pipeline config (Config.Lenient), so batch and
// watch cannot drift.
//
// With -checkpoint-dir the collector commits its incremental state to a
// result store checkpoint (internal/resultstore: a base plus one appended
// delta frame per commit, compacted as it grows) after every sealed window
// and every quarantine, and resumes from it at startup: a killed watcher
// restarts exactly where it stopped, re-reading nothing it had sealed, and
// converges on the state an uninterrupted run would have reached. Alerts
// are exactly-once across kill-and-restart: the journal dedups by key and
// each sealed window checkpoints before the collector moves on. An
// unreadable or mismatched checkpoint warns and cold-starts; a checkpoint
// write failure is counted and the watch goes on. An ingest loop that
// crashes is restarted from the checkpoint up to -retries times with
// jittered, doubling -backoff.
//
// Usage:
//
//	iotwatch -data DIR [-poll 2s] [-once] [-lateness 1] [-alarm 8]
//	         [-checkpoint-dir DIR] [-alert-log FILE] [-alerts-addr HOST:PORT]
//	         [-retries 3] [-backoff 500ms] [-stage-report FILE|-]
//
// With -once the collector drains: it exits once a full sweep finds nothing
// new, sealing any still-open windows first (useful for scripting and
// tests); otherwise it follows until interrupted. Either way the watch runs
// as a stage of the pipeline engine: an interrupt stops the ingest loop,
// prints the summary, and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
	"iotscope/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iotwatch:", err)
		os.Exit(1)
	}
}

// Artifact names inside -checkpoint-dir.
const (
	checkpointFile = "checkpoint.irs"
	alertLogFile   = "alerts.jsonl"
)

// run wires the streaming collector — which owns windowing, sealing, alert
// emission and checkpointing — to the command line: its alert hub to
// stdout, the journal and (optionally) an HTTP listener, and its counters
// to the exit summary and the stage report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iotwatch", flag.ContinueOnError)
	var (
		data        = fs.String("data", "", "dataset directory (required)")
		poll        = fs.Duration("poll", 2*time.Second, "directory poll interval")
		once        = fs.Bool("once", false, "drain: ingest what is present, seal open windows, then exit")
		lateness    = fs.Int("lateness", 1, "hours the watermark trails the newest hour seen (at least 1)")
		alarm       = fs.Float64("alarm", 8, "DoS alarm threshold (x median backscatter hour; 0 disables)")
		ckptDir     = fs.String("checkpoint-dir", "", "persist incremental state here after every sealed window and resume from it at startup")
		alertLog    = fs.String("alert-log", "", "alert journal path (default <checkpoint-dir>/alerts.jsonl)")
		alertsAddr  = fs.String("alerts-addr", "", "serve alerts over HTTP on this address (long-poll /alerts, SSE /alerts/stream; no auth — bind loopback)")
		retries     = fs.Int("retries", 3, "restarts of a crashed ingest loop before giving up (0 = never restart)")
		backoff     = fs.Duration("backoff", 500*time.Millisecond, "base restart backoff (jittered, doubles per restart)")
		stageReport = fs.String("stage-report", "", "write per-stage pipeline metrics JSON to this file (- = stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	if *retries < 0 || *backoff <= 0 {
		return fmt.Errorf("-retries must be non-negative and -backoff positive")
	}
	if *lateness < 1 {
		return fmt.Errorf("-lateness must be at least 1 hour: the watermark trails the newest hour seen")
	}
	ds, err := core.Open(*data)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Lenient = true

	var ckptPath string
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		ckptPath = filepath.Join(*ckptDir, checkpointFile)
		if *alertLog == "" {
			*alertLog = filepath.Join(*ckptDir, alertLogFile)
		}
	}
	var alog *stream.AlertLog
	if *alertLog != "" {
		if alog, err = stream.OpenAlertLog(*alertLog); err != nil {
			return err
		}
		defer alog.Close()
	}
	hub := stream.NewHub(alog)

	// stream reads a zero threshold or restart budget as "use the default";
	// the CLI contract is that -alarm 0 disables and -retries 0 never
	// restarts, which stream spells as negative.
	if *alarm == 0 {
		*alarm = -1
	}
	if *retries == 0 {
		*retries = -1
	}
	col, err := stream.New(stream.Config{
		Dir:            ds.Dir,
		CheckpointPath: ckptPath,
		Poll:           *poll,
		Lateness:       *lateness,
		DoSAlarm:       *alarm,
		Campaigns:      true,
		Drain:          *once,
		Supervisor:     pipeline.RetryPolicy{MaxRetries: *retries, BaseBackoff: *backoff},
	}, func() (*correlate.Incremental, error) {
		// Re-read on every ingest-loop start, so a supervisor restart
		// resumes from whatever the crashed loop persisted.
		return openIncremental(ds, cfg, ckptPath)
	}, hub)
	if err != nil {
		return err
	}

	if *alertsAddr != "" {
		ln, err := net.Listen("tcp", *alertsAddr)
		if err != nil {
			return err
		}
		hsrv := alertsServer(hub)
		// Close, not Shutdown: SSE streams are open-ended and would hold a
		// graceful drain forever.
		defer hsrv.Close()
		go hsrv.Serve(ln)
		fmt.Fprintf(os.Stderr, "iotwatch: serving alerts on http://%s/alerts\n", ln.Addr())
	}

	// Alerts journaled by an earlier run were printed by it; start after them.
	var last uint64
	if backlog := hub.Since(0); len(backlog) > 0 {
		last = backlog[len(backlog)-1].ID
	}
	stopPrint, printed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(printed)
		printAlerts(stdout, hub, ds.Inventory, last, stopPrint)
	}()

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	rep, err := pipeline.New("watch",
		pipeline.Func("stream-ingest", func(ctx context.Context) error {
			err := col.Run(ctx)
			s := col.Stats()
			m := pipeline.Meter(ctx)
			m.RecordsIn = s.RecordsIngested
			m.RecordsOut = s.AlertsEmitted
			m.Retries = s.Restarts
			m.QuarantinedHours = s.HoursQuarantined
			return err
		}),
	).Run(ctx)
	close(stopPrint)
	<-printed
	summary(stdout, col.Stats())
	if emitErr := pipeline.EmitReport(rep, *stageReport); emitErr != nil && err == nil {
		err = emitErr
	}
	return err
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers (iotserve's value), so idle half-open connections cannot pile up.
const readHeaderTimeout = 5 * time.Second

// alertsServer serves the hub's long-poll and SSE feeds. It sets no
// WriteTimeout: an SSE stream is open-ended.
func alertsServer(hub *stream.Hub) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /alerts", hub.ServeList)
	mux.HandleFunc("GET /alerts/stream", hub.ServeStream)
	return &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
}

// openIncremental builds the incremental correlator, resuming from the
// checkpoint at path when one is configured and usable. Resume failures are
// never fatal: an absent file is a first run, an unreadable or mismatched
// one warns and cold-starts — the watch must come up either way.
func openIncremental(ds *core.Dataset, cfg core.Config, path string) (*correlate.Incremental, error) {
	if path == "" {
		return ds.NewIncremental(cfg)
	}
	cp, err := resultstore.ReadCheckpoint(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "iotwatch: checkpoint unusable, cold start: %v\n", err)
		}
		return ds.NewIncremental(cfg)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotwatch: checkpoint rejected, cold start: %v\n", err)
		return ds.NewIncremental(cfg)
	}
	fmt.Fprintf(os.Stderr, "iotwatch: resumed from %s (%d hours ingested, %d quarantined)\n",
		path, inc.HoursIngested(), inc.Stats().HoursQuarantined)
	return inc, nil
}

// printBuffer is the printer's subscription buffer: enough that a terminal
// keeps up with a busy seal, small enough that a stalled pipe costs a
// bounded backlog before the hub cuts the subscription loose.
const printBuffer = 256

// printAlerts writes every alert the hub emits after ID last to w, once
// each and in ID order, until stop is closed. The log is what it prints
// from; the subscription only tells it there is something new. It is a hub
// subscriber like any other: when it falls behind its buffer the hub closes
// the channel, and it resubscribes and carries on from the log.
func printAlerts(w io.Writer, hub *stream.Hub, inv *devicedb.Inventory, last uint64, stop <-chan struct{}) {
	catchUp := func() {
		for _, a := range hub.Since(last) {
			printAlert(w, inv, a)
			last = a.ID
		}
	}
	for {
		ch, unsub := hub.Subscribe(printBuffer)
		for open := true; open; {
			catchUp()
			select {
			case _, open = <-ch:
			case <-stop:
				unsub()
				catchUp()
				return
			}
		}
	}
}

func printAlert(w io.Writer, inv *devicedb.Inventory, a stream.Alert) {
	switch a.Kind {
	case stream.KindNewDevice:
		d := inv.At(a.Device)
		tag := d.Type.String()
		if d.Category == devicedb.CPS && len(d.Services) > 0 {
			tag = d.Services[0]
		}
		fmt.Fprintf(w, "[hour %3d] ALERT new-device: device %d (%s, %s, %s)\n",
			a.Hour, a.Device, d.Category, tag, d.Country)
	case stream.KindDoSSpike:
		d := inv.At(a.Device)
		fmt.Fprintf(w, "[hour %3d] ALERT dos-spike: backscatter %d (%.1fx median); dominant victim device %d (%s in %s)\n",
			a.Hour, a.Packets, a.Ratio, a.Device, d.Category, d.Country)
	case stream.KindNewCampaign:
		fmt.Fprintf(w, "[hour %3d] ALERT new-campaign: %d devices on ports %v (%d pkts)\n",
			a.Hour, len(a.Devices), a.Ports, a.Packets)
	default:
		fmt.Fprintf(w, "[hour %3d] ALERT %s: %s\n", a.Hour, a.Kind, a.Key)
	}
}

func summary(w io.Writer, s stream.Stats) {
	fmt.Fprintf(w, "followed to hour %d (watermark %d): %d windows sealed (%d partial), %d records in %d batches, %d quarantined\n",
		s.MaxHour, s.Watermark, s.WindowsSealed, s.WindowsPartial,
		s.RecordsIngested, s.BatchesIngested, s.HoursQuarantined)
	fmt.Fprintf(w, "    alerts: %d emitted in %d journal appends, %d suppressed as duplicates; late: %d hours, %d records; restarts: %d\n",
		s.AlertsEmitted, s.JournalAppends, s.AlertsSuppressed, s.LateHours, s.LateRecords, s.Restarts)
	fmt.Fprintf(w, "    checkpoints: %d committed, %d failed; %d bytes written, %d compactions, %d failed appends\n",
		s.CheckpointWrites, s.CheckpointFailures,
		s.CheckpointBytes, s.CheckpointCompactions, s.CheckpointAppendFailures)
	for _, f := range s.Faults {
		fmt.Fprintf(w, "    quarantined hour %d: %v\n", f.Hour, f.Err)
	}
}
