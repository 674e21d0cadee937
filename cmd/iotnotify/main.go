// Command iotnotify runs the paper's notification pipeline: it renders
// per-ISP abuse complaints from a dataset, resolves each operator's abuse
// contact through the fallback chain, enqueues the complaints into a
// crash-safe outbound queue, and drains the queue to a delivery sink under
// retry and rate-limit policies — the operational form of "Internet-wide,
// IoT-tailored notifications of such exploitations, thus permitting rapid
// remediation".
//
// Usage:
//
//	iotnotify -data DIR [-top 10] [-min-devices 1] [-lenient]
//	          [-queue-dir DIR] [-drain] [-rate N] [-sink FILE|-]
//	          [-stage-report FILE|-]
//
// Without -queue-dir the tool renders the largest bundles to stdout, as
// before. With -queue-dir the analysis feeds resolve → render → enqueue
// stages whose queue survives kills and restarts; -drain then delivers the
// pending queue to the sink (-sink FILE appends to an idempotent delivery
// log, "-" writes to stdout) at -rate notifications/second (0 = unpaced).
// -drain without -data skips analysis and only drains an existing queue —
// the restart path after a crash. SIGINT/SIGTERM cancel cleanly: queue
// state is always consistent, and a later drain resumes where this one
// stopped.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iotscope/internal/abusecontact"
	"iotscope/internal/core"
	"iotscope/internal/notify"
	"iotscope/internal/outqueue"
	"iotscope/internal/pipeline"
	"iotscope/internal/resilience"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iotnotify:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iotnotify", flag.ContinueOnError)
	var (
		data        = fs.String("data", "", "dataset directory")
		top         = fs.Int("top", 10, "render only the N largest bundles (0 = all)")
		minDevices  = fs.Int("min-devices", 1, "skip operators with fewer compromised devices")
		lenient     = fs.Bool("lenient", false, "quarantine unreadable hours instead of failing")
		queueDir    = fs.String("queue-dir", "", "enqueue complaints into the crash-safe queue at this directory")
		drain       = fs.Bool("drain", false, "deliver the queue's pending notifications to the sink")
		rate        = fs.Float64("rate", 0, "deliveries per second during drain (0 = unpaced)")
		sinkPath    = fs.String("sink", "-", "drain target: file path for the idempotent delivery log, - for stdout")
		stageReport = fs.String("stage-report", "", "write per-stage pipeline metrics JSON to this file (- = stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" && !(*queueDir != "" && *drain) {
		return fmt.Errorf("-data is required (omit it only for -queue-dir with -drain)")
	}
	if *top < 0 {
		return fmt.Errorf("-top must be >= 0")
	}
	if *minDevices < 1 {
		return fmt.Errorf("-min-devices must be >= 1")
	}
	if *rate < 0 {
		return fmt.Errorf("-rate must be >= 0")
	}
	if *drain && *queueDir == "" {
		return fmt.Errorf("-drain requires -queue-dir")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		q      *outqueue.Queue
		err    error
		stages []pipeline.Stage
	)
	if *queueDir != "" {
		if q, err = outqueue.Open(*queueDir); err != nil {
			return err
		}
	}

	res := &core.Results{}
	if *data != "" {
		ds, err := core.Open(*data)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
		cfg.Lenient = *lenient
		stages = ds.AnalysisStages(cfg, res)
		if q != nil {
			resolver := abusecontact.NewResolver(
				abusecontact.Derive(ds.Registry, ds.Scenario.Seed))
			var (
				bundles    []notify.Bundle
				contacts   = make(map[int]abusecontact.Contact)
				complaints []outqueue.Notification
			)
			stages = append(stages,
				pipeline.Func("resolve", func(ctx context.Context) error {
					bundles = res.Views.Bundles(*minDevices)
					unresolved := 0
					for _, b := range bundles {
						c, err := resolver.Resolve(b.ISPIndex)
						if err != nil {
							unresolved++
							continue
						}
						contacts[b.ISPIndex] = c
					}
					m := pipeline.Meter(ctx)
					m.RecordsIn = uint64(len(bundles))
					m.RecordsOut = uint64(len(contacts))
					m.Note = resolver.Stats().String()
					if unresolved == len(bundles) && len(bundles) > 0 {
						return fmt.Errorf("no abuse contact resolved for any of %d operators", len(bundles))
					}
					return nil
				}),
				pipeline.Func("render", func(ctx context.Context) error {
					hour := max(res.Correlate.Hours-1, 0) // the window's last hour
					for _, b := range bundles {
						c, ok := contacts[b.ISPIndex]
						if !ok {
							continue
						}
						key := fmt.Sprintf("as%d", b.ASN)
						meta := notify.ComplaintMeta{
							Contact:     c.Email,
							Tier:        c.Source,
							WindowHours: outqueue.InitialWindowHours,
						}
						if ks, ok := q.Key(key); ok && ks.Reports > 0 {
							meta.Repeat = true
							meta.WindowHours = ks.WindowHours * 2
						}
						complaint, err := notify.RenderComplaint(b, meta)
						if err != nil {
							return err
						}
						complaints = append(complaints, outqueue.Notification{
							DedupKey:  key,
							Contact:   c.Email,
							Tier:      c.Source,
							Subject:   complaint.Subject,
							Body:      complaint.Body,
							EventHour: hour,
							Devices:   len(b.Devices),
							Packets:   b.Packets,
						})
					}
					m := pipeline.Meter(ctx)
					m.RecordsIn = uint64(len(bundles))
					m.RecordsOut = uint64(len(complaints))
					return nil
				}),
				pipeline.Func("enqueue", func(ctx context.Context) error {
					_, es, err := q.Enqueue(complaints...)
					if err != nil {
						return err
					}
					m := pipeline.Meter(ctx)
					m.RecordsIn = uint64(len(complaints))
					m.RecordsOut = uint64(es.Enqueued)
					m.Note = fmt.Sprintf("enqueued %d, suppressed %d", es.Enqueued, es.Suppressed)
					return nil
				}))
		}
	}

	var drainStats outqueue.DrainStats
	if *drain {
		stages = append(stages,
			pipeline.Func("deliver", func(ctx context.Context) error {
				sink, closeSink, err := openSink(*sinkPath, stdout)
				if err != nil {
					return err
				}
				defer closeSink()
				opts := outqueue.DrainOptions{
					Policy: pipeline.RetryPolicy{
						MaxRetries:  4,
						BaseBackoff: 50 * time.Millisecond,
					},
				}
				if *rate > 0 {
					lim, err := resilience.NewRateLimiter(*rate, 1)
					if err != nil {
						return err
					}
					opts.Limiter = lim
				}
				drainStats, err = q.Drain(ctx, sink, opts)
				m := pipeline.Meter(ctx)
				m.RecordsIn = uint64(drainStats.Delivered + drainStats.Failed + drainStats.Remaining)
				m.RecordsOut = uint64(drainStats.Delivered)
				m.Retries = drainStats.Attempts - drainStats.Delivered - drainStats.Failed
				return err
			}))
	}

	rep, err := pipeline.New("notify", stages...).Run(ctx)
	if emitErr := pipeline.EmitReport(rep, *stageReport); emitErr != nil && err == nil {
		err = emitErr
	}
	if err != nil {
		return err
	}

	switch {
	case q != nil:
		qs := q.Stats()
		fmt.Fprintf(stdout, "queue %s: %d items (%d pending, %d sent, %d failed, %d suppressed) across %d operators\n",
			q.Dir(), qs.Items, qs.Pending, qs.Sent, qs.Failed, qs.Suppressed, qs.Keys)
		if *drain {
			fmt.Fprintf(stdout, "drain: delivered %d, failed %d, attempts %d, remaining %d\n",
				drainStats.Delivered, drainStats.Failed, drainStats.Attempts, drainStats.Remaining)
		}
	default:
		bundles := res.Views.Bundles(*minDevices)
		fmt.Fprintf(stdout, "%d operators host inferred compromised IoT devices\n\n", len(bundles))
		n := len(bundles)
		if *top > 0 && *top < n {
			n = *top
		}
		for i := 0; i < n; i++ {
			if err := bundles[i].Render(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "----------------------------------------------------------------")
		}
	}
	return nil
}

// openSink builds the drain sink: "-" renders to stdout, anything else is
// an idempotent append-only delivery log.
func openSink(path string, stdout io.Writer) (outqueue.Sink, func(), error) {
	if path == "-" || path == "" {
		return &outqueue.WriterSink{W: stdout}, func() {}, nil
	}
	fsink, err := outqueue.NewFileSink(path)
	if err != nil {
		return nil, nil, err
	}
	return fsink, func() { fsink.Close() }, nil
}
