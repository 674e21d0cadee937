package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/notify"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
)

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", t.TempDir(), "-once"}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if err := run([]string{"-data", t.TempDir(), "-retries", "-1"}); err == nil {
		t.Fatal("negative retries accepted")
	}
}

func TestRunOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 3)
	cfg.Hours = 5
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "-once"}); err != nil {
		t.Fatal(err)
	}
}

// Damaged datasets must not abort a -once run either: bad hours are
// quarantined (after the retry budget) and the run still exits cleanly.
func TestRunOnceDamagedDataset(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 4)
	cfg.Hours = 5
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 1), 1, 0x08); err != nil {
		t.Fatal(err)
	}
	n, err := faultfs.UncompressedLen(flowtuple.HourPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(flowtuple.HourPath(dir, 3), n/2); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "-once", "-retries", "2", "-backoff", "1ms"}); err != nil {
		t.Fatalf("damaged dataset aborted the watch: %v", err)
	}
}

// testInventory returns a one-device inventory and that device's IP.
func testInventory(t *testing.T) (*devicedb.Inventory, netx.Addr) {
	t.Helper()
	ip := netx.MustParseAddr("1.2.3.4")
	inv, err := devicedb.NewInventory([]devicedb.Device{
		{ID: 0, IP: ip, Category: devicedb.Consumer, Type: devicedb.TypeRouter, Country: "RU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inv, ip
}

func scanRecord(src netx.Addr, n int) flowtuple.Record {
	return flowtuple.Record{
		SrcIP: uint32(src), DstIP: 0x2C000000 + uint32(n),
		SrcPort: 4000, DstPort: 23,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN, Packets: 1,
	}
}

func writeHour(t *testing.T, dir string, hour int, src netx.Addr, recs int) {
	t.Helper()
	w, err := flowtuple.Create(flowtuple.HourPath(dir, hour), uint32(hour))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recs; i++ {
		if err := w.Write(scanRecord(src, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func newTestWatcher(t *testing.T, dir string, inv *devicedb.Inventory, retries int) *watcher {
	t.Helper()
	ds := &core.Dataset{Inventory: inv}
	ds.Scenario.Hours = 24
	inc, err := ds.NewIncremental(core.Config{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	return &watcher{
		dir: dir, inv: inv, inc: inc,
		policy: pipeline.RetryPolicy{
			MaxRetries:  retries,
			BaseBackoff: time.Millisecond,
			Retryable:   correlate.IsRetryable,
		},
		ingested: make(map[int]bool),
		attempts: make(map[int]int),
		nextTry:  make(map[int]time.Time),
	}
}

func TestSweepQuarantinesAndContinues(t *testing.T) {
	dir := t.TempDir()
	inv, ip := testInventory(t)
	writeHour(t, dir, 0, ip, 3)
	writeHour(t, dir, 1, ip, 2)
	writeHour(t, dir, 2, ip, 4)
	writeHour(t, dir, 3, ip, 4)
	// Hour 2: permanent corruption. Hour 3: in-progress truncation.
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 2), 1, 0x20); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(flowtuple.HourPath(dir, 3), 16+22); err != nil {
		t.Fatal(err)
	}

	w := newTestWatcher(t, dir, inv, 2)
	n, err := w.sweep(context.Background())
	if err != nil {
		t.Fatalf("sweep over damaged dir errored: %v", err)
	}
	if n != 2 {
		t.Fatalf("processed %d hours, want 2 healthy", n)
	}
	if !w.inc.Quarantined(2) {
		t.Fatal("corrupt hour not quarantined on first sight")
	}
	if w.inc.Quarantined(3) {
		t.Fatal("truncated hour quarantined before retry budget spent")
	}
	// Burn the retry budget; the truncated file never completes.
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := w.sweep(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !w.inc.Quarantined(3) {
		t.Fatal("truncated hour not quarantined after retries exhausted")
	}
	st := w.inc.Stats()
	if st.HoursOK != 2 || st.HoursQuarantined != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Faults[1].Attempts != 3 { // 1 initial + 2 retries
		t.Fatalf("hour 3 attempts %d", st.Faults[1].Attempts)
	}
}

func TestSweepRetryResolves(t *testing.T) {
	dir := t.TempDir()
	inv, ip := testInventory(t)
	writeHour(t, dir, 0, ip, 5)
	path := flowtuple.HourPath(dir, 0)
	complete, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(path, 16+2*22); err != nil {
		t.Fatal(err)
	}

	w := newTestWatcher(t, dir, inv, 3)
	if n, err := w.sweep(context.Background()); err != nil || n != 0 {
		t.Fatalf("sweep = %d, %v", n, err)
	}
	// The producer finishes the hour; the retry picks it up.
	if err := os.WriteFile(path, complete, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !w.ingested[0] {
		if time.Now().After(deadline) {
			t.Fatal("retry never resolved")
		}
		time.Sleep(2 * time.Millisecond)
		if _, err := w.sweep(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := w.inc.Stats()
	if st.HoursOK != 1 || st.HoursRetried != 1 || st.HoursQuarantined != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := w.inc.Result().Devices[0].Records; got != 5 {
		t.Fatalf("records after retry %d", got)
	}
}

// A watcher polling a directory while the atomic writer publishes hours
// concurrently must never observe a partial file: no retries, no
// quarantines, every hour ingested exactly once.
func TestSweepAgainstConcurrentAtomicWriter(t *testing.T) {
	dir := t.TempDir()
	inv, ip := testInventory(t)
	const hours, recsPerHour = 5, 50

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for h := 0; h < hours; h++ {
			w, err := flowtuple.Create(flowtuple.HourPath(dir, h), uint32(h))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < recsPerHour; i++ {
				if err := w.Write(scanRecord(ip, i)); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					time.Sleep(time.Millisecond) // keep the file in flight
				}
			}
			if err := w.Close(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	w := newTestWatcher(t, dir, inv, 3)
	deadline := time.Now().Add(15 * time.Second)
	for len(w.ingested) < hours {
		if time.Now().After(deadline) {
			t.Fatalf("ingested only %d/%d hours", len(w.ingested), hours)
		}
		if _, err := w.sweep(context.Background()); err != nil {
			t.Fatalf("sweep errored mid-write: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	st := w.inc.Stats()
	if st.HoursOK != hours || st.HoursRetried != 0 || st.HoursQuarantined != 0 || len(st.Faults) != 0 {
		t.Fatalf("atomic writer leaked partial state to the watcher: %+v", st)
	}
	if got := w.inc.Result().Devices[0].Records; got != hours*recsPerHour {
		t.Fatalf("records %d, want %d", got, hours*recsPerHour)
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Error("empty median")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median %v", got)
	}
}

func TestDominantVictim(t *testing.T) {
	mk := func(bs map[int]uint64) *correlate.Result {
		res := &correlate.Result{Devices: make(map[int]*correlate.DeviceStats)}
		for id, v := range bs {
			ds := &correlate.DeviceStats{ID: id}
			if v > 0 {
				ds.BackscatterHourly = map[int]uint64{7: v}
			}
			res.Devices[id] = ds
		}
		return res
	}
	cases := []struct {
		name      string
		bs        map[int]uint64
		wantID    int
		wantShare float64
	}{
		{"no backscatter", map[int]uint64{0: 0, 3: 0}, -1, 0},
		{"empty", nil, -1, 0},
		{"tie breaks to lowest id", map[int]uint64{5: 10, 3: 10}, 3, 0.5},
		// Device 0 present with zero packets must never shadow the real
		// victim, whatever the map iteration order.
		{"zero-packet device 0", map[int]uint64{0: 0, 2: 7}, 2, 1.0},
		{"device 0 as true victim", map[int]uint64{0: 9, 4: 1}, 0, 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20; i++ { // map order shuffles across runs
				id, share := dominantVictim(mk(tc.bs), 7)
				if id != tc.wantID || share != tc.wantShare {
					t.Fatalf("dominantVictim = (%d, %v), want (%d, %v)",
						id, share, tc.wantID, tc.wantShare)
				}
			}
		})
	}
}

// The restart-safety contract end to end: a watcher checkpointing per hour
// is killed mid-dataset (no shutdown path of any kind runs — the per-hour
// checkpoint is the only state that survives), two held-back hours land
// while it is down, and a restarted watcher resumes from the checkpoint,
// ingests the late hours out of order, and converges on state
// byte-identical to a cold batch run over the complete dataset — down to
// the abuse notification bundles derived from it.
func TestCheckpointKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	gcfg := core.DefaultConfig(0.002, 77)
	gcfg.Hours = 6
	if _, err := core.Generate(gcfg, dir); err != nil {
		t.Fatal(err)
	}
	// Hold back hours 3 and 4: they arrive only after the restart, so the
	// resumed watcher must accept out-of-order hours (5 is already in).
	held := map[int][]byte{}
	for _, h := range []int{3, 4} {
		p := flowtuple.HourPath(dir, h)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		held[h] = b
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	wcfg.Lenient = true
	ckpt := t.TempDir()

	// Phase 1: ingest what is present, checkpointing after every hour.
	inc1, path, err := openIncremental(ds, wcfg, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	w1 := newTestWatcher(t, dir, ds.Inventory, 1)
	w1.inc, w1.ckpt = inc1, resultstore.NewCheckpointLog(path, nil)
	if _, err := w1.sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := inc1.HoursIngested(); got != 4 {
		t.Fatalf("phase 1 ingested %d hours, want 4", got)
	}
	// The file the kill leaves behind is a base plus appended frames, so
	// the restart below resumes by replaying frames, not just a base.
	if info, err := resultstore.Verify(path); err != nil || info.Frames == 0 {
		t.Fatalf("phase 1 checkpoint: %+v, %v (want appended frames)", info, err)
	}
	// SIGKILL: w1 is abandoned here. No summary, no final write.

	// The held-back hours land while the watcher is down.
	for h, b := range held {
		if err := os.WriteFile(flowtuple.HourPath(dir, h), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: restart through the real CLI path, resuming from the
	// checkpoint directory.
	if err := run([]string{"-data", dir, "-once", "-checkpoint-dir", ckpt}); err != nil {
		t.Fatal(err)
	}

	// The final checkpoint holds the resumed watcher's entire state.
	cp, err := resultstore.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	inc2, err := ds.RestoreIncremental(wcfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	resumed := inc2.Result()
	if got := inc2.HoursIngested(); got != 6 {
		t.Fatalf("resumed watcher ingested %d hours, want 6", got)
	}

	// Cold batch run over the complete dataset: the oracle.
	cold, err := ds.Analyze(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical through the codec: same state, same artifact.
	resumedPath := filepath.Join(t.TempDir(), "resumed.irs")
	coldPath := filepath.Join(t.TempDir(), "cold.irs")
	if err := resultstore.WriteResult(resumedPath, resumed); err != nil {
		t.Fatal(err)
	}
	if err := resultstore.WriteResult(coldPath, cold.Correlate); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed state is not byte-identical to the cold batch run")
	}

	// And the notifications derived from the resumed state match too.
	ncfg := notify.Config{MinDevices: 1, MinPackets: 1}
	want := notify.Build(cold.Correlate, ds.Inventory, ds.Registry, ds.Threat, ncfg)
	got := notify.Build(resumed, ds.Inventory, ds.Registry, ds.Threat, ncfg)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("notification bundles diverged after kill-and-restart")
	}
}
