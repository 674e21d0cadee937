package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"iotscope/internal/abusecontact"
	"iotscope/internal/apiserve"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/netx"
	"iotscope/internal/notify"
	"iotscope/internal/outqueue"
	"iotscope/internal/resultstore"
	"iotscope/internal/stream"
)

// ledger counts the run's checked operations. Every mismatch is a failed
// operation; a run with any is incorrect and exits non-zero.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// check records one operation and whether it held.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if !ok {
		l.failed++
		if len(l.notes) < 20 {
			l.notes = append(l.notes, fmt.Sprintf(format, args...))
		}
	}
}

// add folds a batch of already counted operations in (HTTP requests).
func (l *ledger) add(attempted, failed int, note string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += attempted
	l.failed += failed
	if failed > 0 && len(l.notes) < 20 {
		l.notes = append(l.notes, note)
	}
}

// bench carries what every phase needs.
type bench struct {
	ctx context.Context
	fx  *fixture
	led *ledger
	tr  *tracer // nil on the untraced run

	// Counts that must repeat exactly across rounds; set by the first
	// round that produces them.
	wantAlerts     uint64
	haveAlerts     bool
	wantComplaints int

	// What the decode layer compares against, read once: the hour files'
	// footer total and hour 0's source addresses.
	footers  uint64
	hour0Src []netx.Addr

	// Counts the traced run reports, taken at the phase boundaries.
	streamStats     stream.Stats
	shed503         int
	mixedGeneration int
}

func (b *bench) scratch(name string, round int) string {
	return filepath.Join(b.fx.dir, fmt.Sprintf("%s-%d", name, round))
}

// endToEndPhases is the round of the untraced run, in its fixed order.
func (b *bench) endToEndPhases() []phase {
	return []phase{
		{"infer", func(int) ([]obs, error) { return b.infer("infer_s", 0) }},
		{"infer-1core", func(int) ([]obs, error) { return b.infer("infer_1core_s", 1) }},
		{"coldstart", b.coldstart},
		{"notify-queue", b.notifyQueue},
		{"stream-drain", func(r int) ([]obs, error) { return b.streamDrain("stream_drain_s", r, true) }},
		{"serve", b.serveSlice},
		{"reload", b.reload},
	}
}

// infer times what iotinfer runs — open the dataset directory, analyze — and
// checks the answer against the reference digest.
func (b *bench) infer(metric string, workers int) ([]obs, error) {
	var res *core.Results
	d, err := b.tr.time(metric, 0, func(int) error {
		var err error
		res, err = analyze(b.ctx, b.fx.ds.Dir, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	dg, err := resultstore.DigestResult(res.Correlate)
	b.led.check(err == nil && dg == b.fx.digest, "%s: digest %08x, want %08x (%v)", metric, dg, b.fx.digest, err)
	return []obs{{metric, obsTime, d.Seconds()}}, nil
}

// coldstart times snapshot on disk → LoadSnapshotOpts → apiserve.New → first
// /v1/summary 200 over loopback: what iotserve -snapshot pays at boot.
func (b *bench) coldstart(int) ([]obs, error) {
	t0 := time.Now()
	ds, res, prov, _, err := core.LoadSnapshotOpts(b.ctx, b.fx.ds.Dir, core.LoadOptions{Store: b.fx.snapPath})
	if err != nil {
		return nil, err
	}
	api, err := apiserve.New(ds, res, []string{apiToken})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(api)
	defer srv.Close()
	cl := newClient(srv.URL, srv.Client())
	rp := cl.do(request{ep: "summary", path: "/v1/summary", want: 200})
	d := time.Since(t0)

	dg, derr := resultstore.DigestResult(res.Correlate)
	b.led.check(prov.Source == "store", "coldstart: provenance %q (%s)", prov.Source, prov.Fallback)
	b.led.check(derr == nil && dg == b.fx.digest, "coldstart: loaded digest %08x, want %08x", dg, b.fx.digest)
	b.led.check(rp.ok, "coldstart: first summary: %s", rp.why)
	return []obs{{"coldstart_s", obsTime, d.Seconds()}}, nil
}

// complaintParts is where one complaintsFor call spent its time.
type complaintParts struct{ bundles, resolve, render time.Duration }

// complaintsFor runs the iotnotify stages between analysis and enqueue —
// bundles, contact resolution, rendering — for one queue.
func complaintsFor(fx *fixture, q *outqueue.Queue, tr *tracer, parent int) ([]outqueue.Notification, complaintParts, error) {
	var (
		parts    complaintParts
		bundles  []notify.Bundle
		contacts = make(map[int]abusecontact.Contact)
		out      []outqueue.Notification
	)
	parts.bundles, _ = tr.time("notify.build_bundles", parent, func(int) error {
		bundles = notify.BuildBundles(notify.Sources{
			Result:    fx.res.Correlate,
			Inventory: fx.ds.Inventory,
			Registry:  fx.ds.Registry,
			Threat:    fx.ds.Threat,
			Malware:   fx.ds.Malware,
			Catalog:   fx.ds.Catalog,
		}, notify.Config{MinDevices: 1, MinPackets: 1})
		return nil
	})
	parts.resolve, _ = tr.time("abusecontact.resolve", parent, func(int) error {
		resolver := abusecontact.NewResolver(abusecontact.Derive(fx.ds.Registry, fx.ds.Scenario.Seed))
		for _, bd := range bundles {
			if c, err := resolver.Resolve(bd.ISPIndex); err == nil {
				contacts[bd.ISPIndex] = c
			}
		}
		return nil
	})
	var err error
	parts.render, err = tr.time("notify.render", parent, func(int) error {
		hour := 0
		if fx.res.Correlate.Hours > 0 {
			hour = fx.res.Correlate.Hours - 1
		}
		for _, bd := range bundles {
			c, ok := contacts[bd.ISPIndex]
			if !ok {
				continue
			}
			key := fmt.Sprintf("as%d", bd.ASN)
			meta := notify.ComplaintMeta{Contact: c.Email, Tier: c.Source, WindowHours: outqueue.InitialWindowHours}
			if ks, ok := q.Key(key); ok && ks.Reports > 0 {
				meta.Repeat = true
				meta.WindowHours = ks.WindowHours * 2
			}
			complaint, err := notify.RenderComplaint(bd, meta)
			if err != nil {
				return err
			}
			out = append(out, outqueue.Notification{
				DedupKey: key, Contact: c.Email, Tier: c.Source,
				Subject: complaint.Subject, Body: complaint.Body,
				EventHour: hour, Devices: len(bd.Devices), Packets: bd.Packets,
			})
		}
		return nil
	})
	return out, parts, err
}

// notifyQueue times the iotnotify -queue-dir stages after analysis into a
// fresh queue directory: the mean of sz.notifyDirs of them, because one is
// over in milliseconds.
func (b *bench) notifyQueue(round int) ([]obs, error) {
	root := b.scratch("queue", round)
	defer os.RemoveAll(root)
	var total time.Duration
	for i := 0; i < b.fx.sz.notifyDirs; i++ {
		t0 := time.Now()
		q, err := outqueue.Open(filepath.Join(root, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		complaints, _, err := complaintsFor(b.fx, q, nil, 0)
		if err != nil {
			return nil, err
		}
		_, es, err := q.Enqueue(complaints...)
		if err != nil {
			return nil, err
		}
		total += time.Since(t0)
		if b.wantComplaints == 0 {
			b.wantComplaints = len(complaints)
		}
		b.led.check(len(complaints) > 0 && len(complaints) == b.wantComplaints && es.Enqueued == len(complaints) && es.Suppressed == 0,
			"notify-queue: %d complaints (want %d), %d enqueued, %d suppressed", len(complaints), b.wantComplaints, es.Enqueued, es.Suppressed)
	}
	return []obs{{"notify_queue_s", obsTime, total.Seconds() / float64(b.fx.sz.notifyDirs)}}, nil
}

// streamDrain times the iotwatch -follow -once path over the followed
// directory: Collector.Run until drained. Durable adds what -checkpoint-dir
// adds — a checkpoint per sealed window and an fsynced alert journal — in a
// fresh directory; the final checkpoint must digest like a batch ingest of
// the same hours.
func (b *bench) streamDrain(metric string, round int, durable bool) ([]obs, error) {
	fx := b.fx
	cfg := stream.Config{Dir: fx.followDir, Poll: time.Millisecond, Drain: true, Campaigns: true}
	var alog *stream.AlertLog
	if durable {
		dir := b.scratch("follow-state", round)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointPath = filepath.Join(dir, "checkpoint.irs")
		var err error
		if alog, err = stream.OpenAlertLog(filepath.Join(dir, "alerts.jsonl")); err != nil {
			return nil, err
		}
		defer alog.Close()
	}
	hub := stream.NewHub(alog)
	col, err := stream.New(cfg, func() (*correlate.Incremental, error) {
		return fx.ds.NewIncremental(fx.streamConfig())
	}, hub)
	if err != nil {
		return nil, err
	}
	d, err := b.tr.time(metric, 0, func(int) error { return col.Run(b.ctx) })
	if err != nil {
		return nil, err
	}

	st := col.Stats()
	b.led.check(st.WindowsSealed == fx.followHours && st.HoursQuarantined == 0 && st.ShedBatches == 0 && st.Restarts == 0,
		"%s: sealed %d of %d windows, %d quarantined, %d shed, %d restarts", metric, st.WindowsSealed, fx.followHours, st.HoursQuarantined, st.ShedBatches, st.Restarts)
	// New-device and dos-spike alerts must repeat exactly. New-campaign
	// alerts are only counted: campaign.Detect sums float weights in map
	// order, so a device pair sitting exactly on the similarity threshold
	// joins a campaign in some drains and not in others (seen at tiny scale).
	keys := make(map[string]bool)
	var exact uint64
	for _, a := range hub.Since(0) {
		keys[a.Key] = true
		if a.Kind != stream.KindNewCampaign {
			exact++
		}
	}
	if !b.haveAlerts {
		b.wantAlerts, b.haveAlerts = exact, true
	}
	b.led.check(exact > 0 && exact == b.wantAlerts, "%s: %d device and spike alerts, want %d", metric, exact, b.wantAlerts)
	b.led.check(uint64(len(keys)) == st.AlertsEmitted, "%s: %d distinct journal keys for %d alerts", metric, len(keys), st.AlertsEmitted)
	if durable {
		b.led.check(st.CheckpointWrites == uint64(fx.followHours) && st.CheckpointFailures == 0,
			"%s: %d checkpoint writes (%d failed) for %d windows", metric, st.CheckpointWrites, st.CheckpointFailures, fx.followHours)
		dg, err := checkpointDigest(fx, cfg.CheckpointPath)
		b.led.check(err == nil && dg == fx.followDigest, "%s: final state digest %08x, want %08x (%v)", metric, dg, fx.followDigest, err)
	}
	b.streamStats = st
	return []obs{{metric, obsTime, d.Seconds()}}, nil
}

// checkpointDigest restores a checkpoint the way iotwatch resumes from one
// and digests the state it holds.
func checkpointDigest(fx *fixture, path string) (uint32, error) {
	cp, err := resultstore.ReadCheckpoint(path)
	if err != nil {
		return 0, err
	}
	inc, err := fx.ds.RestoreIncremental(fx.streamConfig(), cp)
	if err != nil {
		return 0, err
	}
	return resultstore.DigestResult(inc.Result())
}

// clients is the closed loop's size: callers that each wait for their reply.
const clients = 2

// serveSlice drives the request mix from two closed-loop clients over
// loopback keep-alive connections for one slice.
func (b *bench) serveSlice(int) ([]obs, error) {
	fx := b.fx
	lats := make([][]int64, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(fx.sz.slice)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(fx.srv.URL, fx.srv.Client())
			// Clients start half a mix apart so they do not march in step.
			for i := c * len(fx.mix) / clients; time.Now().Before(deadline); i++ {
				rp := cl.do(fx.mix[i%len(fx.mix)])
				lats[c] = append(lats[c], rp.ns)
			}
			b.led.add(cl.attempted, cl.failed, "serve: "+cl.firstFailure)
		}(c)
	}
	wg.Wait()
	d := time.Since(t0)
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("serve slice completed no request")
	}
	slices.Sort(all)
	return []obs{
		{"serve_rps", obsRate, float64(len(all)) / d.Seconds()},
		{"serve_p50_us", obsTime, float64(percentile(all, 50)) / 1e3},
		{"serve_p99_us", obsTime, float64(percentile(all, 99)) / 1e3},
	}, nil
}

// reload times the SIGHUP path — load from the store, Swap — while one
// client keeps reading.
func (b *bench) reload(int) ([]obs, error) {
	fx := b.fx
	genBefore := fx.api.Generation()
	stop := make(chan struct{})
	done := make(chan *client)
	go func() {
		cl := newClient(fx.srv.URL, fx.srv.Client())
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- cl
				return
			default:
			}
			cl.do(fx.mix[i%len(fx.mix)])
		}
	}()
	var (
		res *core.Results
		gen uint64
	)
	d, err := b.tr.time("reload_s", 0, func(int) error {
		ds, loaded, _, _, err := core.LoadSnapshotOpts(b.ctx, fx.ds.Dir, core.LoadOptions{Store: fx.snapPath, RequireStore: true})
		if err != nil {
			return err
		}
		res = loaded
		gen, err = fx.api.Swap(ds, loaded)
		return err
	})
	close(stop)
	cl := <-done
	if err != nil {
		return nil, err
	}
	b.led.check(gen == genBefore+1, "reload: generation %d after %d", gen, genBefore)
	dg, derr := resultstore.DigestResult(res.Correlate)
	b.led.check(derr == nil && dg == fx.digest, "reload: reloaded digest %08x, want %08x", dg, fx.digest)
	b.led.add(cl.attempted, cl.failed, "reload reader: "+cl.firstFailure)
	b.shed503 += cl.shed503
	b.mixedGeneration += cl.mixedGeneration
	return []obs{
		{"reload_s", obsTime, d.Seconds()},
		{"apiserve.rps_during_reload", obsRate, float64(cl.attempted) / d.Seconds()},
	}, nil
}
