package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/pipeline"
	"iotscope/internal/stream"
)

// alertLogFile is the default alert journal name inside -checkpoint-dir.
const alertLogFile = "alerts.jsonl"

type followOpts struct {
	ckptDir     string
	alertLog    string
	addr        string
	stageReport string
	poll        time.Duration
	backoff     time.Duration
	drain       bool
	alarm       float64
	lateness    int
	retries     int
}

// runFollow runs the streaming collector as the watch stage. The collector
// owns windowing, sealing, alert emission, and checkpointing; this wrapper
// wires its alert hub to stdout, the journal, and (optionally) an HTTP
// listener, and reports stage metrics when it stops.
func runFollow(ds *core.Dataset, cfg core.Config, o followOpts) error {
	if o.ckptDir != "" {
		if err := os.MkdirAll(o.ckptDir, 0o755); err != nil {
			return err
		}
		if o.alertLog == "" {
			o.alertLog = filepath.Join(o.ckptDir, alertLogFile)
		}
	}
	var ckptPath string
	if o.ckptDir != "" {
		ckptPath = filepath.Join(o.ckptDir, checkpointFile)
	}
	var alog *stream.AlertLog
	if o.alertLog != "" {
		var err error
		if alog, err = stream.OpenAlertLog(o.alertLog); err != nil {
			return err
		}
		defer alog.Close()
	}
	hub := stream.NewHub(alog)

	// The opener re-reads the checkpoint on every ingest-loop start, so a
	// supervisor restart resumes from whatever the crashed loop persisted.
	opener := func() (*correlate.Incremental, error) {
		inc, _, err := openIncremental(ds, cfg, o.ckptDir)
		return inc, err
	}
	// stream treats 0 as "use the default threshold"; the CLI contract is
	// that -alarm 0 disables, which stream spells as negative.
	dosAlarm := o.alarm
	if dosAlarm == 0 {
		dosAlarm = -1
	}
	col, err := stream.New(stream.Config{
		Dir:            ds.Dir,
		CheckpointPath: ckptPath,
		Poll:           o.poll,
		Lateness:       o.lateness,
		DoSAlarm:       dosAlarm,
		Campaigns:      true,
		Drain:          o.drain,
		Supervisor: pipeline.RetryPolicy{
			MaxRetries:  o.retries,
			BaseBackoff: o.backoff,
		},
	}, opener, hub)
	if err != nil {
		return err
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()

	ch, unsub := hub.Subscribe(256)
	defer unsub()
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for a := range ch {
			printAlert(a)
		}
	}()

	if o.addr != "" {
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /alerts", hub.ServeList)
		mux.HandleFunc("GET /alerts/stream", hub.ServeStream)
		hsrv := &http.Server{Handler: mux}
		// Close, not Shutdown: SSE streams are open-ended and would hold a
		// graceful drain forever.
		defer hsrv.Close()
		go hsrv.Serve(ln)
		fmt.Fprintf(os.Stderr, "iotwatch: serving alerts on http://%s/alerts\n", ln.Addr())
	}

	rep, err := pipeline.New("follow",
		pipeline.Func("stream-ingest", func(ctx context.Context, st *pipeline.State) error {
			err := col.Run(ctx)
			s := col.Stats()
			m := pipeline.Meter(ctx)
			m.RecordsIn = s.RecordsIngested
			m.RecordsOut = s.AlertsEmitted
			m.Retries = s.Restarts
			m.QuarantinedHours = s.HoursQuarantined
			return err
		}),
	).Run(ctx, nil)
	unsub()
	<-printed
	followSummary(col.Stats())
	if emitErr := pipeline.EmitReport(rep, o.stageReport); emitErr != nil && err == nil {
		err = emitErr
	}
	return err
}

func printAlert(a stream.Alert) {
	switch a.Kind {
	case stream.KindNewDevice:
		fmt.Printf("[hour %3d] ALERT new-device: device %d\n", a.Hour, a.Device)
	case stream.KindDoSSpike:
		fmt.Printf("[hour %3d] ALERT dos-spike: backscatter %d (%.1fx median)\n", a.Hour, a.Packets, a.Ratio)
	case stream.KindNewCampaign:
		fmt.Printf("[hour %3d] ALERT new-campaign: %d devices on ports %v (%d pkts)\n",
			a.Hour, len(a.Devices), a.Ports, a.Packets)
	default:
		fmt.Printf("[hour %3d] ALERT %s: %s\n", a.Hour, a.Kind, a.Key)
	}
}

func followSummary(s stream.Stats) {
	fmt.Printf("followed to hour %d (watermark %d): %d windows sealed (%d partial), %d records in %d batches, %d quarantined\n",
		s.MaxHour, s.Watermark, s.WindowsSealed, s.WindowsPartial,
		s.RecordsIngested, s.BatchesIngested, s.HoursQuarantined)
	fmt.Printf("    alerts: %d emitted, %d suppressed as duplicates; late: %d hours, %d records (%d dropped); shed: %d batches; restarts: %d\n",
		s.AlertsEmitted, s.AlertsSuppressed, s.LateHours, s.LateRecords, s.LateDropped,
		s.ShedBatches, s.Restarts)
	fmt.Printf("    checkpoints: %d committed, %d failed; %d bytes written, %d compactions, %d failed appends\n",
		s.CheckpointWrites, s.CheckpointFailures,
		s.CheckpointBytes, s.CheckpointCompactions, s.CheckpointAppendFailures)
}
