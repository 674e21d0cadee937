package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
)

// copyDataset clones a dataset directory so corruption stays local.
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
	// The load report covers the whole pipeline: open/analyze plus the
	// five expanded analysis stages, all ok.
	for _, name := range []string{StageOpen, StageLoad,
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

// hourSentinel names the sentinel an hour-file error wraps: ErrTruncated
// before ErrBadFormat, which it also wraps.
func hourSentinel(err error) error {
	for _, s := range []error{flowtuple.ErrTruncated, flowtuple.ErrBadFormat, fs.ErrNotExist} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// The strict correlate stage is a no-store load's integrity gate: each
// damage, at the first, a middle and the last hour, fails the load with the
// sentinel VerifyHours returns for it and names the same hour. A file past
// the span is the one damage VerifyHours does not see; correlation rejects
// it by name.
func TestLoadSnapshotRejectsEachDamage(t *testing.T) {
	cfg := DefaultConfig(0.002, 42)
	cfg.Hours = 6
	ds, err := Generate(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// cut recompresses the hour's first at(hdr, frame, recs) plain bytes.
	// The plain stream is header, recs frames, then a 5-byte footer (tag
	// and count), so the header length follows from the file's own sizes.
	cut := func(at func(hdr, frame, recs int) int) func(string) error {
		return func(path string) error {
			h, err := flowtuple.Verify(path)
			if err != nil {
				return err
			}
			n, err := faultfs.UncompressedLen(path)
			if err != nil {
				return err
			}
			frame, recs := 1+flowtuple.RecordSize, int(h.Count)
			return faultfs.RecompressPrefix(path, at(n-5-recs*frame, frame, recs))
		}
	}
	damages := []struct {
		name string
		want error // nil: VerifyHours passes, and the file is named past the span
		harm func(path string) error
	}{
		{"bit flip", flowtuple.ErrBadFormat, func(p string) error {
			fi, err := os.Stat(p)
			if err != nil {
				return err
			}
			return faultfs.BitFlip(p, fi.Size()/2, 0x01)
		}},
		{"cut mid-frame", flowtuple.ErrTruncated, cut(func(hdr, frame, recs int) int { return hdr + recs/2*frame + frame/2 })},
		{"cut before footer", flowtuple.ErrTruncated, cut(func(hdr, frame, recs int) int { return hdr + recs*frame })},
		{"missing hour", fs.ErrNotExist, os.Remove},
		{"file past the span", nil, nil},
	}
	for _, d := range damages {
		for _, h := range []int{0, cfg.Hours / 2, cfg.Hours - 1} {
			t.Run(fmt.Sprintf("%s/hour-%d", d.name, h), func(t *testing.T) {
				dir := copyDataset(t, ds.Dir)
				named := h
				if d.harm != nil {
					if err := d.harm(flowtuple.HourPath(dir, h)); err != nil {
						t.Fatal(err)
					}
				} else {
					named = cfg.Hours + h
					raw, err := os.ReadFile(flowtuple.HourPath(dir, h))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(flowtuple.HourPath(dir, named), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				damaged := *ds
				damaged.Dir = dir
				verr := damaged.VerifyHours(context.Background())
				if got := hourSentinel(verr); got != d.want || (verr != nil && !strings.Contains(verr.Error(), fmt.Sprintf("verify hour %d:", h))) {
					t.Fatalf("VerifyHours = %v, want hour %d wrapping %v", verr, h, d.want)
				}
				_, _, _, rep, err := LoadSnapshotOpts(context.Background(), dir, LoadOptions{})
				file := filepath.Base(flowtuple.HourPath(dir, named))
				if err == nil || hourSentinel(err) != d.want || !strings.Contains(err.Error(), file) {
					t.Fatalf("load error %v, want one naming %s and wrapping %v", err, file, d.want)
				}
				if m := stageOf(rep, StageCorrelate); m == nil || m.Status != "failed" {
					t.Fatalf("correlate stage %+v, want failed", m)
				}
			})
		}
	}
}
