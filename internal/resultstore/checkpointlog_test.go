package resultstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
)

// logFixture is a lenient correlator over a small generated dataset plus
// an uninterrupted incremental ingest of it — the state every checkpoint
// file in these tests must restore to.
type logFixture struct {
	dir   string
	hours int
	c     *correlate.Correlator
}

func newLogFixture(t *testing.T, seed uint64, hours int) *logFixture {
	t.Helper()
	dir, g := makeDataset(t, seed, hours)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 1, FaultPolicy: correlate.Lenient})
	return &logFixture{dir: dir, hours: hours, c: c}
}

func (fx *logFixture) fresh(t *testing.T) *correlate.Incremental {
	t.Helper()
	inc, err := fx.c.NewIncremental(fx.hours)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

func (fx *logFixture) ingest(t *testing.T, inc *correlate.Incremental, hour int) {
	t.Helper()
	if _, err := inc.Ingest(context.Background(), fx.dir, hour); err != nil {
		t.Fatal(err)
	}
}

// canonical is the full re-encoding of an incremental's state: what two
// runs are compared by, since raw files depend on compaction timing.
func canonical(inc *correlate.Incremental) []byte {
	cp := inc.Export()
	return encode(KindCheckpoint, cp.Result, cp)
}

func (fx *logFixture) restore(t *testing.T, path string) *correlate.Incremental {
	t.Helper()
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := fx.c.RestoreIncremental(cp)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// Base + k frames restores, after every commit, to a state whose canonical
// re-encoding is byte-identical to the uninterrupted run's; the file never
// holds more frame bytes than base bytes, so a restore replays at most as
// much as it loads; and a resumed log keeps the property across restarts.
func TestCheckpointLogRoundTrip(t *testing.T) {
	const hours = 24
	fx := newLogFixture(t, 83, hours)
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	live := fx.fresh(t)
	log := NewCheckpointLog(path, nil)
	defer log.Close()

	var appends, compactions, maxFrames int
	for h := 0; h < hours; h++ {
		fx.ingest(t, live, h)
		done, err := log.Commit(live)
		if err != nil {
			t.Fatal(err)
		}
		if done.Compacted {
			compactions++
		} else {
			appends++
		}
		info, err := Verify(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != CheckpointVersion || info.Size != info.BaseSize+info.FrameBytes || info.TornBytes != 0 {
			t.Fatalf("hour %d: info %+v", h, info)
		}
		if info.FrameBytes > info.BaseSize {
			t.Fatalf("hour %d: %d frame bytes outgrew a %d-byte base", h, info.FrameBytes, info.BaseSize)
		}
		if done.Compacted != (info.Frames == 0) {
			t.Fatalf("hour %d: commit %+v left %d frames", h, done, info.Frames)
		}
		maxFrames = max(maxFrames, info.Frames)
		if got := canonical(fx.restore(t, path)); !bytes.Equal(got, canonical(live)) {
			t.Fatalf("hour %d: restored state diverged from the live run (%d frames)", h, info.Frames)
		}
		// A restart mid-run: the restored incremental and a new log carry on.
		if h == hours/2 {
			log.Close()
			live = fx.restore(t, path)
			log = NewCheckpointLog(path, nil)
		}
	}
	// The first commit of each log compacts; the rest mostly append, and a
	// 24-hour run compacts a handful of times, not per hour.
	if compactions < 2 || compactions > 8 || appends < hours-8 || maxFrames < 3 {
		t.Fatalf("%d compactions, %d appends, longest frame run %d", compactions, appends, maxFrames)
	}

	uninterrupted := fx.fresh(t)
	for h := 0; h < hours; h++ {
		fx.ingest(t, uninterrupted, h)
	}
	if !bytes.Equal(canonical(live), canonical(uninterrupted)) {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
}

// Quarantines and retried hours travel in frames too: the bookkeeping a
// frame carries is absolute, so a restore agrees with the live run on
// faults, attempts and counters.
func TestCheckpointLogBookkeepingFrames(t *testing.T) {
	fx := newLogFixture(t, 84, 5)
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	live := fx.fresh(t)
	log := NewCheckpointLog(path, nil)
	defer log.Close()
	commit := func(wantFrames int) {
		t.Helper()
		if _, err := log.Commit(live); err != nil {
			t.Fatal(err)
		}
		info, err := Verify(path)
		if err != nil || info.Frames != wantFrames {
			t.Fatalf("info %+v, %v; want %d frames", info, err, wantFrames)
		}
		if !bytes.Equal(canonical(fx.restore(t, path)), canonical(live)) {
			t.Fatalf("restore diverged after %d frames", wantFrames)
		}
	}
	fx.ingest(t, live, 0)
	commit(0)
	// Hour 1 fails retryably (no commit follows a retryable failure), hour
	// 2 ingests, hour 3 is given up on, hour 1 then succeeds on retry.
	live.FailHour(1, os.ErrNotExist)
	fx.ingest(t, live, 2)
	commit(1)
	live.Quarantine(3, errors.New("gave up"))
	commit(2)
	fx.ingest(t, live, 1)
	commit(3)
	if st := live.Stats(); st.HoursRetried != 1 || st.HoursQuarantined != 1 || len(st.Faults) != 1 {
		t.Fatalf("fixture did not exercise the bookkeeping: %+v", st)
	}
}

// Two sealed hours between commits cannot be expressed as one frame, and an
// Export by someone else must not hide an hour from the log: either way the
// commit rewrites the file and nothing is lost.
func TestCheckpointLogSkippedCommit(t *testing.T) {
	fx := newLogFixture(t, 85, 4)
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	live := fx.fresh(t)
	log := NewCheckpointLog(path, nil)
	defer log.Close()
	fx.ingest(t, live, 0)
	if _, err := log.Commit(live); err != nil {
		t.Fatal(err)
	}
	fx.ingest(t, live, 1)
	live.Export() // a bystander's export is not a commit
	fx.ingest(t, live, 2)
	done, err := log.Commit(live)
	if err != nil || !done.Compacted {
		t.Fatalf("commit after two sealed hours: %+v, %v; want a rewrite", done, err)
	}
	if !bytes.Equal(canonical(fx.restore(t, path)), canonical(live)) {
		t.Fatal("hour sealed between commits was lost")
	}
}

// A committed checkpoint written by the previous format version (v1: a
// base, then EOF) still restores, to the state a fresh ingest of the same
// hours reaches, and the next commit upgrades the file to v2.
func TestCheckpointV1FixtureRestoresAndUpgrades(t *testing.T) {
	// testdata/checkpoint-v1.irs: makeDataset(81, 4), hours 0-2 ingested,
	// written by WriteCheckpoint at the commit before delta frames.
	fx := newLogFixture(t, 81, 4)
	fixture, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1.irs"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Verify(path)
	if err != nil || info.Version != 1 || info.Kind != KindCheckpoint || info.Frames != 0 {
		t.Fatalf("fixture info %+v, %v", info, err)
	}
	// v1 has no frames: bytes after its footer are damage, as they always were.
	if _, _, _, err := decode(append(fixture[:len(fixture):len(fixture)], encodeFrame(&correlate.CheckpointDelta{})...), 0); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("v1 file with a frame appended: %v", err)
	}

	resumed := fx.restore(t, path)
	want := fx.fresh(t)
	for h := 0; h < 3; h++ {
		fx.ingest(t, want, h)
	}
	if !bytes.Equal(canonical(resumed), canonical(want)) {
		t.Fatal("v1 checkpoint restored to a different state than a fresh ingest")
	}

	log := NewCheckpointLog(path, nil)
	defer log.Close()
	fx.ingest(t, resumed, 3)
	fx.ingest(t, want, 3)
	if done, err := log.Commit(resumed); err != nil || !done.Compacted {
		t.Fatalf("first commit over a v1 file: %+v, %v", done, err)
	}
	if info, err := Verify(path); err != nil || info.Version != CheckpointVersion {
		t.Fatalf("upgraded info %+v, %v", info, err)
	}
	if !bytes.Equal(canonical(fx.restore(t, path)), canonical(want)) {
		t.Fatal("upgraded checkpoint diverged")
	}
}

// A committed checkpoint in the current format, written by the commit before
// internal/wal existed, pins it: base + two delta frames load, restore to the
// state a fresh ingest of the same hours reaches, and re-encode — base, then
// each frame — to the committed bytes.
func TestCheckpointV2FixtureRestoresAndReencodes(t *testing.T) {
	// testdata/checkpoint-v2.irs: makeDataset(87, 5), hours 0-2 committed
	// one by one through a CheckpointLog.
	fx := newLogFixture(t, 87, 5)
	fixture, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v2.irs"))
	if err != nil {
		t.Fatal(err)
	}
	_, cp, info, err := decode(fixture, KindCheckpoint)
	if err != nil || info.Version != CheckpointVersion || info.Frames != 2 || info.TornBytes != 0 {
		t.Fatalf("fixture info %+v, %v", info, err)
	}
	if !bytes.Equal(withFrames(encode(KindCheckpoint, cp.Result, cp), cp.Deltas), fixture) {
		t.Fatal("fixture does not re-encode to its committed bytes")
	}
	resumed, err := fx.c.RestoreIncremental(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := fx.fresh(t)
	for h := 0; h < 3; h++ {
		fx.ingest(t, want, h)
	}
	if !bytes.Equal(canonical(resumed), canonical(want)) {
		t.Fatal("v2 checkpoint restored to a different state than a fresh ingest")
	}
}

// Every failure the log can meet — the k-th write torn, the k-th fsync or
// rename refused, for every k of a 12-hour run — costs at most that one
// commit: the file on disk always restores to a prefix of the run, the
// commit after a failure rewrites it, and the final state is the
// uninterrupted run's.
func TestCheckpointLogInjectedFailures(t *testing.T) {
	const hours = 12
	fx := newLogFixture(t, 86, hours)
	uninterrupted := fx.fresh(t)
	for h := 0; h < hours; h++ {
		fx.ingest(t, uninterrupted, h)
	}
	want := canonical(uninterrupted)

	run := func(in *faultfs.Injector) (failed, appendFailed int) {
		path := filepath.Join(t.TempDir(), "checkpoint.irs")
		live := fx.fresh(t)
		log := NewCheckpointLog(path, in)
		defer log.Close()
		committed := -1 // last hour known durable
		for h := 0; h < hours; h++ {
			fx.ingest(t, live, h)
			done, err := log.Commit(live)
			if done.AppendFailed {
				appendFailed++
			}
			if err != nil {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatal(err)
				}
				failed++
			} else {
				committed = h
			}
			if committed < 0 {
				continue // nothing durable yet; the file may not exist
			}
			// Whatever happened, the file restores to a state at least as
			// far as the last good commit and never past the live run.
			got := fx.restore(t, path).HoursIngested()
			if got < committed+1 || got > h+1 {
				t.Fatalf("%s #%d, hour %d: file restores to %d hours, committed %d",
					in.Op, in.K, h, got, committed+1)
			}
		}
		if !bytes.Equal(canonical(fx.restore(t, path)), want) {
			t.Fatalf("%s #%d: final state diverged", in.Op, in.K)
		}
		return failed, appendFailed
	}

	clean := &faultfs.Injector{}
	if failed, appendFailed := run(clean); failed+appendFailed != 0 {
		t.Fatal("clean run reported failures")
	}
	for _, op := range []string{"write", "sync", "rename"} {
		n := clean.Count(op)
		if n == 0 {
			t.Fatalf("clean run made no %s", op)
		}
		for k := 1; k <= n; k++ {
			in := &faultfs.Injector{Op: op, K: k}
			failed, appendFailed := run(in)
			if !in.Tripped() {
				t.Fatalf("%s #%d never fired", op, k)
			}
			// A failed append falls back to a rewrite within the same
			// commit; only a failed rewrite fails the commit.
			if failed+appendFailed != 1 {
				t.Fatalf("%s #%d: %d failed commits, %d failed appends", op, k, failed, appendFailed)
			}
		}
	}
}
