package core

import (
	"context"
	"errors"
	"os"
	"testing"

	"iotscope/internal/flowtuple"
)

// copyHours clones a dataset directory so corruption stays local.
func copyDataset(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+"/"+e.Name(), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestLoadSnapshotCleanDataset(t *testing.T) {
	ds, res := loadE2E(t)
	ds2, res2, _, rep, err := LoadSnapshotOpts(context.Background(), ds.Dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Scenario.Hours != ds.Scenario.Hours {
		t.Fatalf("hours %d != %d", ds2.Scenario.Hours, ds.Scenario.Hours)
	}
	if res2.Summary.Total != res.Summary.Total {
		t.Fatalf("snapshot load diverged: %d devices != %d",
			res2.Summary.Total, res.Summary.Total)
	}
	if res2.Correlate.Ingest.HoursOK != ds.Scenario.Hours {
		t.Fatalf("ingest hoursOk %d, want %d",
			res2.Correlate.Ingest.HoursOK, ds.Scenario.Hours)
	}
	// The load report covers the whole pipeline: open/verify/analyze plus
	// the five expanded analysis stages, all ok.
	for _, name := range []string{StageOpen, StageVerify, StageLoad,
		StageCorrelate, StageCharacterize, StageStatTests, StageThreatIntel, StageMalware} {
		m := stageOf(rep, name)
		if m == nil || m.Status != "ok" {
			t.Fatalf("load report stage %q = %+v, want ok", name, m)
		}
	}
}

func TestLoadSnapshotRejectsCorruptHour(t *testing.T) {
	ds, _ := loadE2E(t)
	dir := copyDataset(t, ds.Dir)
	path := flowtuple.HourPath(dir, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+8 && i < len(raw); i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := LoadSnapshotOpts(context.Background(), dir, LoadOptions{}); err == nil {
		t.Fatal("corrupt hour accepted")
	} else if !errors.Is(err, flowtuple.ErrBadFormat) {
		t.Fatalf("corrupt hour error %v does not wrap ErrBadFormat", err)
	}

	// A missing hour is rejected too: serving never starts from a gap.
	dir2 := copyDataset(t, ds.Dir)
	if err := os.Remove(flowtuple.HourPath(dir2, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := LoadSnapshotOpts(context.Background(), dir2, LoadOptions{}); err == nil {
		t.Fatal("missing hour accepted")
	}
}
