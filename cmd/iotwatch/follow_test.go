package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/resultstore"
	"iotscope/internal/stream"
)

func TestFollowValidation(t *testing.T) {
	if err := run([]string{"-data", t.TempDir(), "-follow", "-lateness", "-1"}); err == nil {
		t.Fatal("negative lateness accepted")
	}
}

// The follow-mode restart contract through the real CLI path: a drain run
// over a partial dataset checkpoints and journals its alerts, the held
// hours land while the watcher is down, and a second run resumes from the
// checkpoint, ingests only the late hours, and converges on the state of a
// cold batch run — byte-identical in its canonical re-encoding; the raw
// file depends on compaction timing — with every alert in the shared
// journal emitted exactly once across both runs.
func TestFollowDrainResumeExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	gcfg := core.DefaultConfig(0.002, 91)
	gcfg.Hours = 6
	if _, err := core.Generate(gcfg, dir); err != nil {
		t.Fatal(err)
	}
	held := map[int][]byte{}
	for _, h := range []int{4, 5} {
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

	ckpt := t.TempDir()
	args := []string{"-data", dir, "-follow", "-once",
		"-checkpoint-dir", ckpt, "-poll", "2ms", "-backoff", "1ms"}
	if err := run(args); err != nil {
		t.Fatalf("first follow run: %v", err)
	}
	journal := filepath.Join(ckpt, alertLogFile)
	firstAlerts := readAlertJournal(t, journal)
	if len(firstAlerts) == 0 {
		t.Fatal("first run journaled no alerts")
	}

	for h, b := range held {
		if err := os.WriteFile(flowtuple.HourPath(dir, h), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(args); err != nil {
		t.Fatalf("resumed follow run: %v", err)
	}

	// Exactly-once: every journal key appears once, and the new-device
	// alerts match the full dataset's inferred device set.
	alerts := readAlertJournal(t, journal)
	keys := map[string]int{}
	devices := 0
	for _, a := range alerts {
		keys[a.Key]++
		if a.Kind == stream.KindNewDevice {
			devices++
		}
	}
	for k, n := range keys {
		if n != 1 {
			t.Errorf("alert key %q journaled %d times", k, n)
		}
	}

	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Lenient = true
	inc, err := ds.NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < gcfg.Hours; h++ {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	if devices != len(inc.Result().Devices) {
		t.Fatalf("%d new-device alerts, want %d", devices, len(inc.Result().Devices))
	}

	canonical := func(inc *correlate.Incremental) []byte {
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
	cp, err := resultstore.ReadCheckpoint(filepath.Join(ckpt, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	followed, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(followed), canonical(inc); !bytes.Equal(got, want) {
		t.Fatalf("follow checkpoint diverged from batch oracle (%d vs %d bytes)", len(got), len(want))
	}
}

func readAlertJournal(t *testing.T, path string) []stream.Alert {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var alerts []stream.Alert
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var a stream.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		alerts = append(alerts, a)
	}
	return alerts
}
