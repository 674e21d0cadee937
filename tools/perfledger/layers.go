package main

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotscope/internal/campaign"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/matview"
	"iotscope/internal/netx"
	"iotscope/internal/outqueue"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
	"iotscope/internal/stream"
)

// Internal sample names of the traced run: measured to derive declared
// metrics from, never printed themselves.
const (
	tracedInfer   = "bench.traced_infer_1core_s"
	untracedInfer = "bench.untraced_infer_1core_s"
	inprocP50     = "bench.inprocess_p50_us"
	tcpP50        = "bench.tcp_p50_us"
)

// layerPhases is the round of the traced run: every layer called on its own
// from outside, a span around each call. Layers that share a bracket are
// cheap next to the kernel; each group is one phase of the round.
func (b *bench) layerPhases() []phase {
	return []phase{
		{"decode", b.layerDecode},
		{"infer-traced", b.layerInfer},
		{"infer-untraced", func(int) ([]obs, error) { return b.infer(untracedInfer, 1) }},
		{"correlate-parallel", b.layerParallel},
		{"incremental", b.layerIncremental},
		{"snapshot", b.layerSnapshot},
		{"stream-mem", func(r int) ([]obs, error) { return b.streamDrain("stream.drain_mem_s", r, false) }},
		{"stream-durable", func(r int) ([]obs, error) { return b.streamDrain("stream.drain_durable_s", r, true) }},
		{"alertlog", b.layerAlertLog},
		{"apiserve", b.layerServe},
		{"reload", b.reload},
		{"notify", b.layerNotify},
	}
}

// layerDecode measures the read path under the join: the gunzip floor over
// the dataset's own hour files, the flowtuple decoder with a no-op consumer,
// full verification, and the inventory lookup over one hour's sources.
func (b *bench) layerDecode(int) ([]obs, error) {
	fx := b.fx
	hours := fx.ds.Scenario.Hours
	if b.hour0Src == nil {
		for h := 0; h < hours; h++ {
			hdr, err := flowtuple.Verify(flowtuple.HourPath(fx.ds.Dir, h))
			if err != nil {
				return nil, err
			}
			b.footers += uint64(hdr.Count)
		}
		err := flowtuple.WalkHourBatch(b.ctx, fx.ds.Dir, 0, func(batch []flowtuple.Record) error {
			for i := range batch {
				b.hour0Src = append(b.hour0Src, netx.Addr(batch[i].SrcIP))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	srcs, footers := b.hour0Src, b.footers
	var decoded uint64

	floor, err := b.tr.time("flowtuple.gunzip_floor", 0, func(int) error {
		for h := 0; h < hours; h++ {
			if err := gunzipFile(flowtuple.HourPath(fx.ds.Dir, h)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decode, err := b.tr.time("flowtuple.decode", 0, func(int) error {
		for h := 0; h < hours; h++ {
			err := flowtuple.WalkHourBatch(b.ctx, fx.ds.Dir, h, func(batch []flowtuple.Record) error {
				decoded += uint64(len(batch))
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	verify, err := b.tr.time("flowtuple.verify", 0, func(int) error { return fx.ds.VerifyHours(b.ctx) })
	if err != nil {
		return nil, err
	}
	// Enough passes over the hour's sources that the loop outlasts timer
	// resolution by orders of magnitude.
	passes := 1 + 1_000_000/(len(srcs)+1)
	hits := 0
	lookup, _ := b.tr.time("devicedb.lookup", 0, func(int) error {
		for p := 0; p < passes; p++ {
			for _, a := range srcs {
				if _, ok := fx.ds.Inventory.LookupIP(a); ok {
					hits++
				}
			}
		}
		return nil
	})
	b.led.check(decoded == footers && decoded == fx.records, "decode: %d records decoded, footers say %d, generator wrote %d", decoded, footers, fx.records)
	b.led.check(len(srcs) > 0 && hits > 0, "lookup: %d sources, %d hits", len(srcs), hits)
	return []obs{
		{"flowtuple.gunzip_floor_s", obsTime, floor.Seconds()},
		{"flowtuple.decode_s", obsTime, decode.Seconds()},
		{"flowtuple.verify_s", obsTime, verify.Seconds()},
		{"devicedb.lookup_ns", obsTime, float64(lookup.Nanoseconds()) / float64(passes*len(srcs))},
	}, nil
}

func gunzipFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, zr)
	return err
}

// layerInfer is infer-1core taken apart: the same calls iotinfer -workers 1
// makes, each under its own span. Their sum against the untraced phase next
// in the round is bench.trace_overhead.
func (b *bench) layerInfer(int) ([]obs, error) {
	fx := b.fx
	var (
		ds                             *core.Dataset
		cres                           *correlate.Result
		views                          *matview.Views
		open, corr, downstream, matDur time.Duration
	)
	total, err := b.tr.time("infer_1core.traced", 0, func(root int) error {
		var err error
		open, err = b.tr.time("core.open", root, func(int) error {
			ds, err = core.Open(fx.ds.Dir)
			return err
		})
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
		cfg.Workers = 1
		corr, err = b.tr.time("correlate.dataset_1w", root, func(int) error {
			cres, err = correlate.New(ds.Inventory, cfg.CorrelatorOptions()).ProcessDataset(b.ctx, ds.Dir)
			return err
		})
		if err != nil {
			return err
		}
		res := &core.Results{Correlate: cres}
		var stages []pipeline.Stage
		for _, st := range ds.DownstreamStages(cfg, res) {
			if st.Name() != core.StageMaterialize {
				stages = append(stages, st)
			}
		}
		downstream, err = b.tr.time("core.downstream", root, func(int) error {
			_, err := pipeline.New("downstream", stages...).Run(b.ctx, nil)
			return err
		})
		if err != nil {
			return err
		}
		matDur, err = b.tr.time("matview.build", root, func(int) error {
			views, err = matview.Build(matview.Sources{
				Result: res.Correlate, Analyzer: res.Analyzer, Summary: res.Summary,
				StatTests: res.StatTests, Malware: res.Malware,
				Inventory: ds.Inventory, Registry: ds.Registry, Threat: ds.Threat,
			})
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	dg, derr := resultstore.DigestResult(cres)
	b.led.check(derr == nil && dg == fx.digest && views.Digest() == fx.digest, "traced infer: digest %08x, views %08x, want %08x", dg, views.Digest(), fx.digest)
	return []obs{
		{tracedInfer, obsTime, total.Seconds()},
		{"core.open_s", obsTime, open.Seconds()},
		{"correlate.dataset_1w_s", obsTime, corr.Seconds()},
		{"core.downstream_s", obsTime, downstream.Seconds()},
		{"matview.build_s", obsTime, matDur.Seconds()},
		{"matview.static_bytes", obsCount, float64(views.Stats().StaticBytes)},
	}, nil
}

// layerParallel runs the two parallel correlation paths: default workers and
// two source-prefix shards.
func (b *bench) layerParallel(int) ([]obs, error) {
	fx := b.fx
	run := func(name string, cfg core.Config) (time.Duration, error) {
		var res *correlate.Result
		d, err := b.tr.time(name, 0, func(int) error {
			c := correlate.New(fx.ds.Inventory, cfg.CorrelatorOptions())
			var err error
			if cfg.Shards > 1 {
				res, _, err = c.ProcessDatasetSharded(b.ctx, fx.ds.Dir)
			} else {
				res, err = c.ProcessDataset(b.ctx, fx.ds.Dir)
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		dg, derr := resultstore.DigestResult(res)
		b.led.check(derr == nil && dg == fx.digest, "%s: digest %08x, want %08x", name, dg, fx.digest)
		return d, nil
	}
	dflt, err := run("correlate.dataset", fx.cfg)
	if err != nil {
		return nil, err
	}
	sharded := fx.cfg
	sharded.Shards = 2
	sh, err := run("correlate.sharded2", sharded)
	if err != nil {
		return nil, err
	}
	return []obs{
		{"correlate.dataset_s", obsTime, dflt.Seconds()},
		{"correlate.sharded2_s", obsTime, sh.Seconds()},
	}, nil
}

// layerIncremental prices what the stream phase pays underneath: ingesting
// the followed hours one by one (its floor), then — on the full state, the
// most a window pays — Result, campaign detection, and a checkpoint write.
func (b *bench) layerIncremental(round int) ([]obs, error) {
	fx := b.fx
	var inc *correlate.Incremental
	ingest, err := b.tr.time("correlate.incremental_all", 0, func(int) error {
		var err error
		if inc, err = fx.ds.NewIncremental(fx.streamConfig()); err != nil {
			return err
		}
		for h := 0; h < fx.followHours; h++ {
			if _, err := inc.Ingest(b.ctx, fx.ds.Dir, h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var res *correlate.Result
	result, _ := b.tr.time("correlate.result", 0, func(int) error { res = inc.Result(); return nil })
	detect, err := b.tr.time("campaign.detect", 0, func(int) error {
		_, err := campaign.Detect(res, campaign.DefaultConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	path := b.scratch("checkpoint", round) + ".irs"
	defer os.Remove(path)
	ckpt, err := b.tr.time("resultstore.checkpoint_write", 0, func(int) error {
		return resultstore.WriteCheckpoint(path, inc.Export())
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	dg, derr := checkpointDigest(fx, path)
	b.led.check(derr == nil && dg == fx.followDigest, "checkpoint: digest %08x, want %08x (%v)", dg, fx.followDigest, derr)
	return []obs{
		{"correlate.incremental_all_s", obsTime, ingest.Seconds()},
		{"correlate.result_s", obsTime, result.Seconds()},
		{"campaign.detect_s", obsTime, detect.Seconds()},
		{"resultstore.checkpoint_write_s", obsTime, ckpt.Seconds()},
		{"resultstore.checkpoint_bytes", obsCount, float64(fi.Size())},
	}, nil
}

// layerSnapshot is the snapshot codec alone: save the analyzed state, load
// and validate it against the dataset.
func (b *bench) layerSnapshot(round int) ([]obs, error) {
	fx := b.fx
	path := b.scratch("snapshot", round) + ".irs"
	defer os.Remove(path)
	save, err := b.tr.time("resultstore.save", 0, func(int) error { return core.SaveSnapshot(path, fx.res) })
	if err != nil {
		return nil, err
	}
	var loaded *correlate.Result
	load, err := b.tr.time("resultstore.load", 0, func(int) error {
		var err error
		loaded, err = fx.ds.OpenSnapshot(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	dg, derr := resultstore.DigestResult(loaded)
	b.led.check(derr == nil && dg == fx.digest, "snapshot: loaded digest %08x, want %08x", dg, fx.digest)
	return []obs{
		{"resultstore.save_s", obsTime, save.Seconds()},
		{"resultstore.load_s", obsTime, load.Seconds()},
		{"resultstore.snapshot_bytes", obsCount, float64(fi.Size())},
	}, nil
}

// layerAlertLog appends distinct alerts to a fresh fsynced journal.
func (b *bench) layerAlertLog(round int) ([]obs, error) {
	const appends = 40
	path := b.scratch("alerts", round) + ".jsonl"
	defer os.Remove(path)
	alog, err := stream.OpenAlertLog(path)
	if err != nil {
		return nil, err
	}
	defer alog.Close()
	emitted := 0
	d, err := b.tr.time("stream.alertlog_append", 0, func(int) error {
		for i := 0; i < appends; i++ {
			_, ok, err := alog.Append(stream.Alert{Kind: stream.KindNewDevice, Key: fmt.Sprintf("device/%d", i), Hour: i, Device: i})
			if err != nil {
				return err
			}
			if ok {
				emitted++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.led.check(emitted == appends, "alertlog: %d of %d appends emitted", emitted, appends)
	return []obs{{"stream.alertlog_append_us", obsTime, float64(d.Microseconds()) / appends}}, nil
}

// layerServe calls the handler in-process — per endpoint, then the whole mix
// — and then sends the same mix from one client over loopback TCP; the
// difference of the two medians is what net/http and the socket cost.
func (b *bench) layerServe(int) ([]obs, error) {
	fx := b.fx
	byEP := make(map[string]request)
	for _, rq := range fx.mix {
		byEP[rq.ep] = rq
	}
	var out []obs
	in := newInProcessClient(fx.api)
	in.do(byEP["summary"]) // learn the ETag the revalidation sends
	for _, ep := range endpoints {
		reps := fx.sz.endpointReps
		if ep == "reports" {
			reps = 1 + reps/10 // encoded per request: two orders dearer than the rest
		}
		bytes := 0
		d, _ := b.tr.time("apiserve."+ep, 0, func(int) error {
			for i := 0; i < reps; i++ {
				bytes += in.do(byEP[ep]).bytes
			}
			return nil
		})
		out = append(out,
			obs{"apiserve." + ep + "_us", obsTime, float64(d.Nanoseconds()) / 1e3 / float64(reps)},
			obs{"apiserve." + ep + "_bytes", obsCount, float64(bytes) / float64(reps)})
	}
	cycles := 1 + fx.sz.endpointReps/len(fx.mix)
	p50 := func(name string, cl *client) int64 {
		lats := make([]int64, 0, cycles*len(fx.mix))
		b.tr.time(name, 0, func(int) error {
			for i := 0; i < cycles*len(fx.mix); i++ {
				lats = append(lats, cl.do(fx.mix[i%len(fx.mix)]).ns)
			}
			return nil
		})
		b.led.add(cl.attempted, cl.failed, name+": "+cl.firstFailure)
		slices.Sort(lats)
		return percentile(lats, 50)
	}
	inP50 := p50("apiserve.mix_inprocess", in)
	tcp := p50("apiserve.mix_tcp", newClient(fx.srv.URL, fx.srv.Client()))
	return append(out,
		obs{inprocP50, obsTime, float64(inP50) / 1e3},
		obs{tcpP50, obsTime, float64(tcp) / 1e3}), nil
}

// layerNotify takes notify_queue_s apart: each iotnotify stage alone, then
// the same complaints into the same queue again (all suppressed), then a
// drain of the queue into a delivery log.
func (b *bench) layerNotify(round int) ([]obs, error) {
	fx := b.fx
	dir := b.scratch("notify", round)
	defer os.RemoveAll(dir)
	q, err := outqueue.Open(filepath.Join(dir, "queue"))
	if err != nil {
		return nil, err
	}
	var (
		complaints   []outqueue.Notification
		parts        complaintParts
		first, rerun outqueue.EnqueueStats
		drained      outqueue.DrainStats
	)
	if _, err := b.tr.time("notify.stages", 0, func(root int) error {
		var err error
		complaints, parts, err = complaintsFor(fx, q, b.tr, root)
		return err
	}); err != nil {
		return nil, err
	}
	enq, err := b.tr.time("outqueue.enqueue", 0, func(int) error {
		var err error
		_, first, err = q.Enqueue(complaints...)
		return err
	})
	if err != nil {
		return nil, err
	}
	again, err := b.tr.time("outqueue.enqueue_rerun", 0, func(int) error {
		var err error
		_, rerun, err = q.Enqueue(complaints...)
		return err
	})
	if err != nil {
		return nil, err
	}
	sink, err := outqueue.NewFileSink(filepath.Join(dir, "delivered.log"))
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	drain, err := b.tr.time("outqueue.drain", 0, func(int) error {
		var err error
		drained, err = q.Drain(b.ctx, sink, outqueue.DrainOptions{
			Policy: pipeline.RetryPolicy{MaxRetries: 4, BaseBackoff: 50 * time.Millisecond},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	n := len(complaints)
	b.led.check(n > 0 && first.Enqueued == n && rerun.Suppressed == n && rerun.Enqueued == 0 && drained.Delivered == n && drained.Failed == 0,
		"notify: %d complaints, %d enqueued, rerun %d suppressed, %d delivered, %d failed", n, first.Enqueued, rerun.Suppressed, drained.Delivered, drained.Failed)
	return []obs{
		{"notify.build_bundles_s", obsTime, parts.bundles.Seconds()},
		{"abusecontact.resolve_s", obsTime, parts.resolve.Seconds()},
		{"notify.render_s", obsTime, parts.render.Seconds()},
		{"outqueue.enqueue_s", obsTime, enq.Seconds()},
		{"outqueue.enqueue_rerun_s", obsTime, again.Seconds()},
		{"outqueue.drain_s", obsTime, drain.Seconds()},
		{"outqueue.complaints", obsCount, float64(n)},
	}, nil
}

// hourLag is the open-loop view of following: hour files land in a followed
// directory on a schedule whether or not the collector keeps up, and an
// hour's lag runs from when it was due to land until a checkpoint covers it.
// Idle-then-fsync latencies do not repeat within a tenth on a shared runner,
// so these are reported, never gated.
func (b *bench) hourLag() (map[string]float64, error) {
	fx := b.fx
	n := fx.sz.lagHours
	if n > fx.ds.Scenario.Hours {
		n = fx.ds.Scenario.Hours
	}
	dir := b.scratch("landing", 0)
	if err := os.MkdirAll(filepath.Join(dir, "state"), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	alog, err := stream.OpenAlertLog(filepath.Join(dir, "state", "alerts.jsonl"))
	if err != nil {
		return nil, err
	}
	defer alog.Close()
	col, err := stream.New(stream.Config{
		Dir:            dir,
		CheckpointPath: filepath.Join(dir, "state", "checkpoint.irs"),
		Poll:           10 * time.Millisecond,
		Campaigns:      true,
	}, func() (*correlate.Incremental, error) { return fx.ds.NewIncremental(fx.streamConfig()) }, stream.NewHub(alog))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(b.ctx)
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- col.Run(ctx) }()

	start := time.Now().Add(50 * time.Millisecond)
	due := func(h int) time.Time { return start.Add(time.Duration(h) * fx.sz.lagEvery) }
	covered := make([]time.Time, n)
	watched := make(chan struct{})
	go func() { // stamps each hour the moment a checkpoint write covers it
		defer close(watched)
		seen := 0
		for seen < n && ctx.Err() == nil {
			if w := int(col.Stats().CheckpointWrites); w > seen {
				now := time.Now()
				for ; seen < w && seen < n; seen++ {
					covered[seen] = now
				}
				continue
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	var lateMax time.Duration
	for h := 0; h < n; h++ {
		time.Sleep(time.Until(due(h)))
		if late := time.Since(due(h)); late > lateMax {
			lateMax = late
		}
		tmp := filepath.Join(dir, fmt.Sprintf(".landing-%d", h))
		if err := os.Link(flowtuple.HourPath(fx.ds.Dir, h), tmp); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, flowtuple.HourPath(dir, h)); err != nil {
			return nil, err
		}
	}
	select {
	case <-watched:
	case <-time.After(10 * time.Second):
	}
	cancel()
	<-watched
	if err := <-ran; err != nil {
		return nil, err
	}
	var lags []float64
	for h, t := range covered {
		if !t.IsZero() {
			lags = append(lags, float64(t.Sub(due(h)).Microseconds())/1e3)
		}
	}
	b.led.check(len(lags) == n, "hour lag: %d of %d landed hours were covered by a checkpoint", len(lags), n)
	if len(lags) == 0 {
		return nil, fmt.Errorf("hour lag: no landed hour was checkpointed")
	}
	sort.Float64s(lags)
	return map[string]float64{
		"stream.hour_lag_p50_ms": lags[(len(lags)-1)/2],
		"stream.hour_lag_p90_ms": lags[(len(lags)-1)*9/10],
		"stream.gen_late_max_ms": float64(lateMax.Microseconds()) / 1e3,
	}, nil
}

// openLoop sends the mix at a fixed rate whether or not replies keep up:
// independent users, not callers waiting their turn. Each request is timed
// from when it was due, so a stall charges every request queued behind it.
func (b *bench) openLoop() (map[string]float64, error) {
	fx := b.fx
	total := int(float64(fx.sz.openRate) * fx.sz.openFor.Seconds())
	if total < 1 {
		total = 1
	}
	gap := time.Second / time.Duration(fx.sz.openRate)
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	lats := make([][]int64, clients)
	lateMax := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(fx.srv.URL, fx.srv.Client())
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					break
				}
				due := start.Add(time.Duration(i) * gap)
				time.Sleep(time.Until(due))
				if late := time.Since(due); late > lateMax[c] {
					lateMax[c] = late
				}
				cl.do(fx.mix[i%len(fx.mix)])
				lats[c] = append(lats[c], time.Since(due).Nanoseconds())
			}
			b.led.add(cl.attempted, cl.failed, "open loop: "+cl.firstFailure)
		}(c)
	}
	wg.Wait()
	var all []int64
	late := time.Duration(0)
	for c := range lats {
		all = append(all, lats[c]...)
		if lateMax[c] > late {
			late = lateMax[c]
		}
	}
	slices.Sort(all)
	return map[string]float64{
		"apiserve.open500_p50_us":      float64(percentile(all, 50)) / 1e3,
		"apiserve.open500_p99_us":      float64(percentile(all, 99)) / 1e3,
		"apiserve.open500_late_max_ms": float64(late.Microseconds()) / 1e3,
	}, nil
}
