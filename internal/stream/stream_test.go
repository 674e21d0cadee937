package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"iotscope/internal/campaign"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
)

// genDataset generates a synthetic dataset and returns its directory, the
// opened dataset, and a lenient analysis config — the same construction
// the iotwatch CLI uses.
func genDataset(t *testing.T, seed uint64, hours int) (string, *core.Dataset, core.Config) {
	t.Helper()
	dir := t.TempDir()
	gcfg := core.DefaultConfig(0.002, seed)
	gcfg.Hours = hours
	if _, err := core.Generate(gcfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Lenient = true
	return dir, ds, cfg
}

// checkpointOpener is the production resume discipline: restore from the
// checkpoint when one exists, cold-start otherwise.
func checkpointOpener(ds *core.Dataset, cfg core.Config, ckpt string) Opener {
	return func() (*correlate.Incremental, error) {
		if ckpt != "" {
			cp, err := resultstore.ReadCheckpoint(ckpt)
			if err == nil {
				return ds.RestoreIncremental(cfg, cp)
			}
			if !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
		}
		return ds.NewIncremental(cfg)
	}
}

// batchCheckpoint runs the classic hour-at-a-time batch ingest over the
// given hours and returns the resulting checkpoint bytes — the oracle the
// streamed checkpoint must match byte for byte.
func batchCheckpoint(t *testing.T, ds *core.Dataset, cfg core.Config, dir string, hours ...int) []byte {
	t.Helper()
	inc, err := ds.NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hours {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	return encodeCheckpoint(t, inc)
}

// encodeCheckpoint is the canonical full encoding of an incremental's
// state: a base with no frames.
func encodeCheckpoint(t *testing.T, inc *correlate.Incremental) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "canonical.irs")
	if err := resultstore.WriteCheckpoint(path, inc.Export()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// canonicalCheckpoint restores the live checkpoint file — base plus
// whatever frames compaction timing left appended — and re-encodes the
// state it holds canonically, which is what runs are compared by.
func canonicalCheckpoint(t *testing.T, ds *core.Dataset, cfg core.Config, path string) []byte {
	t.Helper()
	cp, err := resultstore.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCheckpoint(t, inc)
}

func countRecords(t *testing.T, path string) int {
	t.Helper()
	rd, err := flowtuple.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	buf := make([]flowtuple.Record, flowtuple.BatchSize)
	total := 0
	for {
		n, err := rd.NextBatch(buf)
		total += n
		if err == io.EOF {
			return total
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainMatchesBatch: streaming a complete dataset in drain mode must
// converge to a checkpoint byte-identical (re-encoded) to the batch
// pipeline's, with exactly one new-device alert per discovered device, and
// a second drain must journal the same alert keys — new-campaign keys
// included, which campaign.Detect's ordered float sums make repeatable.
func TestDrainMatchesBatch(t *testing.T) {
	dir, ds, cfg := genDataset(t, 21, 6)
	drain := func() (Stats, *AlertLog, string) {
		t.Helper()
		ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
		log, err := OpenAlertLog(filepath.Join(t.TempDir(), "alerts.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Dir: dir, CheckpointPath: ckpt, Poll: 2 * time.Millisecond,
			Drain: true, Campaigns: true,
		}, checkpointOpener(ds, cfg, ckpt), NewHub(log))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c.Stats(), log, ckpt
	}
	st, log, ckpt := drain()
	_, again, _ := drain()
	if got, want := alertKeys(again), alertKeys(log); !maps.Equal(got, want) {
		t.Fatalf("a second drain journaled different alert keys: %d vs %d", len(got), len(want))
	}
	if st.WindowsSealed != 6 || st.WindowsPartial != 0 || st.RecordsIngested == 0 {
		t.Fatalf("implausible stream stats: %+v", st)
	}
	if st.CheckpointWrites != 6 || st.CheckpointFailures != 0 || st.CheckpointCompactions == 0 ||
		st.CheckpointCompactions == 6 || st.CheckpointBytes == 0 {
		t.Fatalf("six seals must make six commits, the first a compaction and some appends: %+v", st)
	}
	got := canonicalCheckpoint(t, ds, cfg, ckpt)
	if want := batchCheckpoint(t, ds, cfg, dir, 0, 1, 2, 3, 4, 5); !bytes.Equal(got, want) {
		t.Fatal("streamed checkpoint diverged from batch ingest")
	}
	// Exactly one new-device alert per device the batch result knows.
	cp, err := resultstore.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	devAlerts := 0
	for _, a := range log.Since(0) {
		if a.Kind == KindNewDevice {
			devAlerts++
		}
	}
	if want := len(inc.Result().Devices); devAlerts != want {
		t.Fatalf("%d new-device alerts for %d devices", devAlerts, want)
	}
	// Suppressions may legitimately occur (a campaign re-detected in a
	// later window), but everything emitted must be in the journal.
	if st.AlertsEmitted != uint64(log.Len()) {
		t.Fatalf("alert accounting: %+v vs log %d", st, log.Len())
	}
	// A window's alerts are one journal commit: one per window that alerted.
	alerted := map[int]bool{}
	for _, a := range log.Since(0) {
		alerted[a.Hour] = true
	}
	if st.JournalAppends != uint64(len(alerted)) || st.JournalAppends > uint64(st.WindowsSealed) {
		t.Fatalf("%d journal appends for %d alerting windows of %d sealed", st.JournalAppends, len(alerted), st.WindowsSealed)
	}
}

// alertKeys counts the journal's alerts by key.
func alertKeys(l *AlertLog) map[string]int {
	m := map[string]int{}
	for _, a := range l.Since(0) {
		m[a.Key]++
	}
	return m
}

// campaignKeys is the new-campaign part of a journal's key set. A resumed
// ingest loop rebuilds its campaign tracker from the checkpoint, so this set
// is where a tracker that resumed differently from how it left off shows.
func campaignKeys(keys map[string]int) map[string]int {
	out := map[string]int{}
	for k, n := range keys {
		if strings.HasPrefix(k, "campaign/") {
			out[k] = n
		}
	}
	return out
}

// TestChaosKillRestartExactlyOnce is the headline chaos proof: the ingest
// loop is crashed twice at the nastiest points of the seal sequence —
// once after alerts became durable but before the checkpoint, once after
// the in-memory seal but before alerts — and the supervised, resumed run
// must still converge to the state of an uninterrupted run, byte-identical
// in its canonical re-encoding (the raw files differ with compaction
// timing), with every alert key — new-campaign keys included — emitted
// exactly once.
func TestChaosKillRestartExactlyOnce(t *testing.T) {
	dir, ds, cfg := genDataset(t, 22, 6)

	run := func(failpoint func(string, int) error) (Stats, *AlertLog, []byte, string) {
		t.Helper()
		stateDir := t.TempDir()
		ckpt := filepath.Join(stateDir, "checkpoint.irs")
		alog := filepath.Join(stateDir, "alerts.jsonl")
		log, err := OpenAlertLog(alog)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond, Drain: true,
			Campaigns: true,
			Supervisor: pipeline.RetryPolicy{
				MaxRetries:  8,
				BaseBackoff: time.Millisecond,
				Retryable:   func(error) bool { return true },
			},
		}, checkpointOpener(ds, cfg, ckpt), NewHub(log))
		if err != nil {
			t.Fatal(err)
		}
		c.failpoint = failpoint
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c.Stats(), log, canonicalCheckpoint(t, ds, cfg, ckpt), alog
	}

	_, wantLog, wantCkpt, _ := run(nil)

	killed := map[string]bool{}
	st, gotLog, gotCkpt, alogPath := run(func(point string, hour int) error {
		k := fmt.Sprintf("%s/%d", point, hour)
		if (k == "alerted/0" || k == "sealed/3") && !killed[k] {
			killed[k] = true
			return fmt.Errorf("injected crash at %s", k)
		}
		return nil
	})
	if st.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", st.Restarts)
	}
	if st.AlertsSuppressed == 0 {
		t.Fatal("resume re-derived no alerts — the dedup path went unexercised")
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatal("chaos-run checkpoint diverged from the uninterrupted run")
	}
	got, want := alertKeys(gotLog), alertKeys(wantLog)
	for k, n := range got {
		if n != 1 {
			t.Fatalf("alert %q emitted %d times", k, n)
		}
	}
	if gotC, wantC := campaignKeys(got), campaignKeys(want); len(wantC) == 0 || !maps.Equal(gotC, wantC) {
		t.Fatalf("the killed-and-resumed drain alerted campaigns %v, the uninterrupted one %v", gotC, wantC)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("alert key sets diverged: %d chaos vs %d clean", len(got), len(want))
	}
	// The durable journal replays to the same exactly-once state.
	replayed, err := OpenAlertLog(alogPath)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if !maps.Equal(alertKeys(replayed), want) {
		t.Fatal("journal replay diverged from the live log")
	}
}

// TestChaosCheckpointCrashPoints enumerates the crash points of a followed
// drain's two durable writers — the checkpoint commit and the alert journal,
// both on the one injected file system — instead of sampling them: for every
// write, fsync and rename a clean 12-hour drain performs, a run in which the
// process dies at exactly that operation (the write torn half way,
// everything after it failing until the supervisor's restart) must still
// reach the golden state with every alert key journaled once.
// A commit that died is the only one lost: its hour is re-tailed and sealed
// again after the restart — unless the frame had reached the file whole and
// only its fsync died, in which case the restart finds the hour already
// committed. A journal append that died kills the seal it belonged to before
// any commit: the restart re-seals that hour on the same Hub, the journal
// first dropping the torn line, and the keys that did become durable
// suppress their re-derived copies.
// One mid-run failure per kind that does not kill the process checks the
// other branch: a commit falls back to a rewrite or is retried by the next
// seal, with no restart; a journal append costs one supervised restart.
func TestChaosCheckpointCrashPoints(t *testing.T) {
	const hours = 12
	dir, ds, cfg := genDataset(t, 28, hours)

	run := func(in *faultfs.Injector) (Stats, []byte, map[string]int) {
		t.Helper()
		stateDir := t.TempDir()
		ckpt := filepath.Join(stateDir, "checkpoint.irs")
		alog := filepath.Join(stateDir, "alerts.jsonl")
		log, err := openAlertLog(in, alog)
		if err != nil {
			t.Fatal(err)
		}
		restore := checkpointOpener(ds, cfg, ckpt)
		c, err := New(Config{
			Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond, Drain: true,
			Campaigns: true,
			Supervisor: pipeline.RetryPolicy{
				MaxRetries:  2,
				BaseBackoff: time.Millisecond,
				Retryable:   func(error) bool { return true },
			},
		}, func() (*correlate.Incremental, error) {
			in.Reboot() // the supervisor's restart is the new process
			return restore()
		}, NewHub(log))
		if err != nil {
			t.Fatal(err)
		}
		c.ckptFS = in
		c.failpoint = func(point string, hour int) error {
			if point == "checkpointed" && in.Dead() {
				return fmt.Errorf("process died at %s #%d (hour %d)", in.Op, in.K, hour)
			}
			return nil
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatalf("%s #%d: %v", in.Op, in.K, err)
		}
		// The journal a later process start would replay is the live one.
		keys := alertKeys(log)
		log.Close()
		replayed, err := OpenAlertLog(alog)
		if err != nil {
			t.Fatalf("%s #%d: journal does not reopen: %v", in.Op, in.K, err)
		}
		defer replayed.Close()
		if !maps.Equal(alertKeys(replayed), keys) {
			t.Fatalf("%s #%d: journal replay diverged from the live log", in.Op, in.K)
		}
		return c.Stats(), canonicalCheckpoint(t, ds, cfg, ckpt), keys
	}
	// journalHit tells which writer the injected failure landed on: a failed
	// journal append kills the seal before its commit is attempted, so no
	// commit fails and the sealed hour is short one commit.
	journalHit := func(st Stats) bool {
		return st.CheckpointFailures+st.CheckpointAppendFailures == 0
	}
	check := func(in *faultfs.Injector, st Stats, state []byte, keys, wantKeys map[string]int, wantState []byte) {
		t.Helper()
		if !in.Tripped() {
			t.Fatalf("%s #%d never fired", in.Op, in.K)
		}
		if !bytes.Equal(state, wantState) {
			t.Fatalf("%s #%d: final state diverged from the clean run", in.Op, in.K)
		}
		for k, n := range keys {
			if n != 1 {
				t.Fatalf("%s #%d: alert %q journaled %d times", in.Op, in.K, k, n)
			}
		}
		if got, want := campaignKeys(keys), campaignKeys(wantKeys); !maps.Equal(got, want) {
			t.Fatalf("%s #%d: resumed drain alerted campaigns %v, the clean run %v", in.Op, in.K, got, want)
		}
		if !maps.Equal(keys, wantKeys) {
			t.Fatalf("%s #%d: %d alert keys, clean run has %d", in.Op, in.K, len(keys), len(wantKeys))
		}
		commits := st.CheckpointWrites + st.CheckpointFailures
		if journalHit(st) {
			commits++
		}
		if commits != uint64(st.WindowsSealed) {
			t.Fatalf("%s #%d: commit accounting %+v", in.Op, in.K, st)
		}
	}

	clean := &faultfs.Injector{}
	st, wantState, wantKeys := run(clean)
	if st.WindowsSealed != hours || st.CheckpointWrites != hours || st.CheckpointFailures != 0 || st.Restarts != 0 {
		t.Fatalf("clean run: %+v", st)
	}
	if len(campaignKeys(wantKeys)) == 0 {
		t.Fatal("clean run alerted no campaign: the resumed trackers go unchecked")
	}
	journalCrashes := 0
	for _, op := range []string{"write", "sync", "rename"} {
		n := clean.Count(op)
		if n == 0 {
			t.Fatalf("clean run made no %s", op)
		}
		for k := 1; k <= n; k++ {
			in := &faultfs.Injector{Op: op, K: k, Crash: true}
			st, state, keys := run(in)
			check(in, st, state, keys, wantKeys, wantState)
			if journalHit(st) {
				journalCrashes++
				if st.Restarts != 1 || st.WindowsSealed != hours+1 {
					t.Fatalf("%s #%d: a journal crash must cost one restart and one re-sealed hour: %+v", op, k, st)
				}
			} else if st.Restarts != 1 || st.CheckpointFailures != 1 ||
				(st.WindowsSealed != hours+1 && !(op == "sync" && st.WindowsSealed == hours)) {
				t.Fatalf("%s #%d: one crash must cost one commit and at most one re-sealed hour: %+v", op, k, st)
			}
		}
		// The same operation failing once, the process surviving.
		in := &faultfs.Injector{Op: op, K: (n + 1) / 2}
		st, state, keys := run(in)
		check(in, st, state, keys, wantKeys, wantState)
		if journalHit(st) {
			if st.Restarts != 1 || st.WindowsSealed != hours+1 {
				t.Fatalf("%s #%d survived by the journal: %+v", op, in.K, st)
			}
		} else if st.Restarts != 0 || st.WindowsSealed != hours || st.CheckpointFailures+st.CheckpointAppendFailures != 1 {
			t.Fatalf("%s #%d survived: %+v", op, in.K, st)
		}
	}
	if journalCrashes == 0 || journalCrashes == clean.Count("write")+clean.Count("sync") {
		t.Fatalf("%d of the crash points landed on the journal; want some on each writer", journalCrashes)
	}
}

// TestLateArrivalQuarantinedNotDropped: an hour that first surfaces behind
// the watermark is quarantined (persisted in the checkpoint) and every one
// of its records is counted, never silently discarded.
func TestLateArrivalQuarantinedNotDropped(t *testing.T) {
	dir, ds, cfg := genDataset(t, 23, 5)
	latePath := flowtuple.HourPath(dir, 1)
	held, err := os.ReadFile(latePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(latePath); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
	c, err := New(Config{
		Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond,
	}, checkpointOpener(ds, cfg, ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	waitFor(t, "present hours to seal", func() bool { return c.Stats().WindowsSealed == 4 })

	// Hour 1 lands only now — behind the watermark (maxHour 4, lateness 1).
	if err := os.WriteFile(latePath, held, 0o644); err != nil {
		t.Fatal(err)
	}
	n := countRecords(t, latePath)
	waitFor(t, "late records to be counted", func() bool {
		s := c.Stats()
		return s.LateHours == 1 && s.LateRecords == uint64(n)
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	s := c.Stats()
	if len(s.Faults) != 1 || s.Faults[0].Hour != 1 || !errors.Is(s.Faults[0].Err, ErrLateArrival) {
		t.Fatalf("late hour not named in the fault list: %+v", s.Faults)
	}
	cp, err := resultstore.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Quarantined(1) {
		t.Fatal("late hour not quarantined in the checkpoint")
	}
	for _, h := range []int{0, 2, 3, 4} {
		if !inc.Ingested(h) {
			t.Fatalf("hour %d missing from the checkpoint", h)
		}
	}
}

// TestSlowGrowTailing drives the faultfs.Grower fault mode: an hour file
// revealed a few hundred bytes at a time must be ingested incrementally —
// each published prefix read exactly once via the cursor — and still
// converge to the batch-identical checkpoint once the footer lands.
func TestSlowGrowTailing(t *testing.T) {
	dir, ds, cfg := genDataset(t, 24, 2)
	grownPath := flowtuple.HourPath(dir, 1)
	full, err := os.ReadFile(grownPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := faultfs.NewGrower(grownPath, full)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
	c, err := New(Config{
		Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond,
	}, checkpointOpener(ds, cfg, ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.batchLen = 32
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	waitFor(t, "the complete hour to seal", func() bool { return c.Stats().WindowsSealed == 1 })

	for !g.Done() {
		if _, err := g.Grow(512); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, "the grown hour to seal", func() bool { return c.Stats().WindowsSealed == 2 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	total := countRecords(t, flowtuple.HourPath(dir, 0)) + countRecords(t, grownPath)
	if got := c.Stats().RecordsIngested; got != uint64(total) {
		t.Fatalf("ingested %d records, dataset has %d", got, total)
	}
	got := canonicalCheckpoint(t, ds, cfg, ckpt)
	if want := batchCheckpoint(t, ds, cfg, dir, 0, 1); !bytes.Equal(got, want) {
		t.Fatal("slow-grown checkpoint diverged from batch ingest")
	}
}

// TestCorruptHourQuarantined: permanent structural damage mid-file
// quarantines just that hour; the rest of the dataset streams through and
// the checkpoint matches a lenient batch run over the same damage.
func TestCorruptHourQuarantined(t *testing.T) {
	dir, ds, cfg := genDataset(t, 25, 4)
	// A flipped gzip magic byte is deterministically permanent damage.
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 2), 1, 0x08); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
	c, err := New(Config{
		Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond, Drain: true,
	}, checkpointOpener(ds, cfg, ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.HoursQuarantined != 1 || len(st.Faults) != 1 || st.Faults[0].Hour != 2 ||
		!errors.Is(st.Faults[0].Err, flowtuple.ErrBadFormat) {
		t.Fatalf("quarantine stats: %+v", st)
	}
	// A resumed collector names the hour its checkpoint had given up on.
	c, err = New(Config{Dir: dir, Poll: time.Millisecond, Drain: true}, checkpointOpener(ds, cfg, ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.WindowsSealed != 0 || len(st.Faults) != 1 || st.Faults[0].Hour != 2 {
		t.Fatalf("resumed stats: %+v", st)
	}
	cp, err := resultstore.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Quarantined(2) {
		t.Fatal("damaged hour not quarantined")
	}
	for _, h := range []int{0, 1, 3} {
		if !inc.Ingested(h) {
			t.Fatalf("healthy hour %d not ingested", h)
		}
	}
}

// TestLateGrowthCounted: bytes appended after a completed footer are
// reported and counted, never ingested.
func TestLateGrowthCounted(t *testing.T) {
	dir, ds, cfg := genDataset(t, 27, 2)
	ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
	c, err := New(Config{
		Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond,
	}, checkpointOpener(ds, cfg, ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	waitFor(t, "both hours to seal", func() bool { return c.Stats().WindowsSealed == 2 })
	// The oracle must predate the damage: batch ingest of a junk-trailed
	// file would (rightly) reject it.
	want := batchCheckpoint(t, ds, cfg, dir, 0, 1)
	if err := faultfs.AppendTail(flowtuple.HourPath(dir, 0), []byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "late growth to be counted", func() bool { return c.Stats().LateBytes == 3 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := canonicalCheckpoint(t, ds, cfg, ckpt); !bytes.Equal(got, want) {
		t.Fatal("late growth leaked into the checkpoint")
	}
}

// TestConcurrentAtomicWriter: a collector following a directory while
// flowtuple.Create publishes hours into it must never observe a partial
// file — the writer renames a finished file into place — so every hour
// seals complete, none is quarantined, and the record count is exact.
func TestConcurrentAtomicWriter(t *testing.T) {
	const hours = 5
	dir, ds, cfg := genDataset(t, 29, hours)
	staged := t.TempDir()
	total := 0
	for h := 0; h < hours; h++ {
		total += countRecords(t, flowtuple.HourPath(dir, h))
		if err := os.Rename(flowtuple.HourPath(dir, h), flowtuple.HourPath(staged, h)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(Config{Dir: dir, Poll: time.Millisecond}, checkpointOpener(ds, cfg, ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	if err := republish(staged, dir, hours); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every hour to seal", func() bool { return c.Stats().WindowsSealed == hours })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.WindowsPartial != 0 || st.HoursQuarantined != 0 || len(st.Faults) != 0 || st.LateHours != 0 {
		t.Fatalf("atomic writer leaked partial state to the collector: %+v", st)
	}
	if st.RecordsIngested != uint64(total) {
		t.Fatalf("ingested %d records, wrote %d", st.RecordsIngested, total)
	}
}

// republish rewrites each staged hour into dir through the atomic writer,
// pausing between batches to keep the file in flight across many polls.
func republish(staged, dir string, hours int) error {
	buf := make([]flowtuple.Record, 64)
	for h := 0; h < hours; h++ {
		rd, err := flowtuple.Open(flowtuple.HourPath(staged, h))
		if err != nil {
			return err
		}
		w, err := flowtuple.Create(flowtuple.HourPath(dir, h), uint32(h))
		if err != nil {
			rd.Close()
			return err
		}
		for {
			n, err := rd.NextBatch(buf)
			for _, rec := range buf[:n] {
				if werr := w.Write(rec); werr != nil {
					rd.Close()
					return werr
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				rd.Close()
				return err
			}
			time.Sleep(100 * time.Microsecond)
		}
		rd.Close()
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// TestDoSSpikeNamesDominantVictim: a dos-spike alert carries the hour's
// dominant victim, as the sealed state holds it.
func TestDoSSpikeNamesDominantVictim(t *testing.T) {
	dir, ds, cfg := genDataset(t, 21, 8)
	ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
	hub := NewHub(nil)
	c, err := New(Config{
		Dir: dir, CheckpointPath: ckpt, Poll: time.Millisecond, Drain: true,
	}, checkpointOpener(ds, cfg, ckpt), hub)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp, err := resultstore.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	spikes := 0
	for _, a := range hub.Since(0) {
		if a.Kind != KindDoSSpike {
			continue
		}
		spikes++
		if want := dominantVictim(inc.Result(), a.Hour); want < 0 || a.Device != want {
			t.Errorf("hour %d spike names device %d, dominant victim is %d", a.Hour, a.Device, want)
		}
	}
	if spikes == 0 {
		t.Fatal("fixture raised no dos-spike")
	}
}

// The DoS alarm's one median is the true one: an even count averages the
// middle pair (the deleted poll loop took the upper of the two).
func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
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
		name string
		bs   map[int]uint64
		want int
	}{
		{"no backscatter", map[int]uint64{0: 0, 3: 0}, -1},
		{"empty", nil, -1},
		{"tie breaks to lowest id", map[int]uint64{5: 10, 3: 10}, 3},
		// Device 0 present with zero packets must never shadow the real
		// victim, whatever the map iteration order.
		{"zero-packet device 0", map[int]uint64{0: 0, 2: 7}, 2},
		{"device 0 as true victim", map[int]uint64{0: 9, 4: 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20; i++ { // map order shuffles across runs
				if got := dominantVictim(mk(tc.bs), 7); got != tc.want {
					t.Fatalf("dominantVictim = %d, want %d", got, tc.want)
				}
			}
		})
	}
}

// A cohort's ports swapping rank between two windows is the same cohort: the
// new-campaign key is its port set, so the second window's alert is
// suppressed, while each alert still lists the ports by weight.
func TestCampaignRankFlipAlertsOnce(t *testing.T) {
	res := &correlate.Result{TCPScanPorts: map[uint16]*correlate.TCPPortAgg{
		23:   {Packets: 900, DevicesConsumer: []int32{1, 2, 3}},
		2323: {Packets: 600, DevicesConsumer: []int32{1, 2, 3}},
	}}
	tracker := campaign.NewTracker(res, campaign.DefaultConfig())
	hub := NewHub(nil)
	c, err := New(Config{Dir: t.TempDir(), Campaigns: true}, func() (*correlate.Incremental, error) {
		return nil, errors.New("unused")
	}, hub)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.journal(campaignAlerts(tracker.Campaigns(), 0)); err != nil {
		t.Fatal(err)
	}
	res.TCPScanPorts[2323].Packets = 1800 // the next hour leans on 2323
	tracker.Observe(res, []uint16{2323}, nil)
	if err := c.journal(campaignAlerts(tracker.Campaigns(), 1)); err != nil {
		t.Fatal(err)
	}
	alerts := hub.Since(0)
	if len(alerts) != 1 || alerts[0].Key != "campaign/p23-2323" || !slices.Equal(alerts[0].Ports, []uint16{23, 2323}) {
		t.Fatalf("journaled %+v, want one campaign/p23-2323 alert leading with port 23", alerts)
	}
	if got := tracker.Campaigns(); len(got) != 1 || !slices.Equal(got[0].Ports, []uint16{2323, 23}) {
		t.Fatalf("fixture did not flip rank: %+v", got)
	}
	if st := c.Stats(); st.AlertsEmitted != 1 || st.AlertsSuppressed != 1 {
		t.Fatalf("emitted %d, suppressed %d; want 1 and 1", st.AlertsEmitted, st.AlertsSuppressed)
	}
}
