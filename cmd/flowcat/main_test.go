package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"iotscope/internal/core"
	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/malwaredb"
	"iotscope/internal/resultstore"
)

func testDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 3)
	cfg.Hours = 3
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no mode accepted")
	}
	if err := run([]string{"-file", "/nonexistent.ft.gz"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-data", t.TempDir()}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDumpFile(t *testing.T) {
	dir := testDataset(t)
	if err := run([]string{"-file", filepath.Join(dir, "hour-000.ft.gz"), "-n", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	dir := testDataset(t)
	if err := run([]string{"-data", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "-hour", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanDataset(t *testing.T) {
	dir := testDataset(t)
	if err := run([]string{"-verify", "-data", dir}); err != nil {
		t.Fatalf("clean dataset failed verification: %v", err)
	}
	if err := run([]string{"-verify", "-file", filepath.Join(dir, "hour-000.ft.gz")}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-data", t.TempDir()}); err == nil {
		t.Fatal("empty dataset verified clean")
	}
}

func TestVerifyFlagsDamage(t *testing.T) {
	dir := testDataset(t)
	// One corrupt hour, one truncated in-progress hour; hour 0 stays good.
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 1), 1, 0x04); err != nil {
		t.Fatal(err)
	}
	n, err := faultfs.UncompressedLen(flowtuple.HourPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(flowtuple.HourPath(dir, 2), n/2); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-verify", "-data", dir})
	if err == nil {
		t.Fatal("damaged dataset verified clean")
	}
	if got := err.Error(); got != "2 of 3 files failed verification" {
		t.Fatalf("verdict %q", got)
	}
	// Single-file mode flags the same damage.
	if err := run([]string{"-verify", "-file", flowtuple.HourPath(dir, 1)}); err == nil {
		t.Fatal("corrupt file verified clean")
	}
}

// -verify on a result-store artifact: a live checkpoint (base + frames)
// verifies clean, a torn tail frame is reported but is not damage, and a
// file cut inside its base is TRUNCATED like an hour file.
func TestVerifyResultStore(t *testing.T) {
	dir := testDataset(t)
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.NewIncremental(core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	log := resultstore.NewCheckpointLog(path, nil)
	defer log.Close()
	for h := 0; h < 3; h++ {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
		if _, err := log.Commit(inc); err != nil {
			t.Fatal(err)
		}
	}
	info, err := resultstore.Verify(path)
	if err != nil || info.Frames != 2 {
		t.Fatalf("fixture: %+v, %v", info, err)
	}
	if got := describeStore(info); !strings.Contains(got, "2 frames") || !strings.Contains(got, "to next compaction") {
		t.Fatalf("description %q", got)
	}
	if err := run([]string{"-verify", "-file", path}); err != nil {
		t.Fatal(err)
	}
	// Over its dataset the verdict carries the state digest, which a
	// frameless rewrite of the same state shares.
	state, err := storeState(path, dir, resultstore.KindCheckpoint)
	if err != nil || !strings.Contains(state, "over 3 hours ingested") {
		t.Fatalf("state %q, %v", state, err)
	}
	compact := filepath.Join(t.TempDir(), "compact.irs")
	if err := resultstore.WriteCheckpoint(compact, inc.Export()); err != nil {
		t.Fatal(err)
	}
	if again, err := storeState(compact, dir, resultstore.KindCheckpoint); err != nil || again != state {
		t.Fatalf("compacted state %q, %v; framed %q", again, err, state)
	}
	// ... and so does the same state saved as a result, the way a batch run
	// saves it.
	saved := filepath.Join(t.TempDir(), "result.irs")
	if err := resultstore.WriteResult(saved, inc.Result()); err != nil {
		t.Fatal(err)
	}
	if again, err := storeState(saved, dir, resultstore.KindResult); err != nil || again != state {
		t.Fatalf("saved result state %q, %v; checkpoint %q", again, err, state)
	}
	if err := run([]string{"-verify", "-file", saved, "-data", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-file", path, "-data", dir}); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.TruncateTail(path, 5); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-file", path}); err != nil {
		t.Fatalf("torn tail frame reported as damage: %v", err)
	}
	if err := faultfs.TruncateTail(path, info.FrameBytes+40); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-file", path}); err == nil {
		t.Fatal("checkpoint cut inside its base verified clean")
	}
}

// TestVerifyMalwareIndex: the index beside a dataset's XML feed verifies
// fresh, goes stale — not bad — when the feed changes, and a torn or
// flipped one fails like any other damaged file.
func TestVerifyMalwareIndex(t *testing.T) {
	dir := testDataset(t)
	idx := filepath.Join(dir, core.MalwareIndexFile)
	info, err := malwaredb.VerifyIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	if got := describeIndex(info); !strings.Contains(got, "3000 reports") || !strings.HasSuffix(got, ", fresh") {
		t.Fatalf("description %q", got)
	}
	if err := run([]string{"-verify", "-file", idx}); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.AppendTail(filepath.Join(dir, core.MalwareReportsFile), []byte("\n")); err != nil {
		t.Fatal(err)
	}
	if info, err = malwaredb.VerifyIndex(idx); err != nil || !strings.HasSuffix(describeIndex(info), ", stale") {
		t.Fatalf("beside a changed feed: %q, %v", describeIndex(info), err)
	}
	if err := run([]string{"-verify", "-file", idx}); err != nil {
		t.Fatalf("stale index reported as damage: %v", err)
	}
	if err := faultfs.BitFlip(idx, 200, 0x08); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-file", idx}); err == nil {
		t.Fatal("flipped index verified clean")
	}
	if err := faultfs.TruncateTail(idx, 9); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-file", idx}); err == nil {
		t.Fatal("torn index verified clean")
	}
}
