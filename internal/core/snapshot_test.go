package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
	"iotscope/internal/pipeline"
	"iotscope/internal/resultstore"
	"iotscope/internal/scenario"
)

// saveE2ESnapshot persists the shared fixture's correlation state and
// returns the store path.
func saveE2ESnapshot(t *testing.T, res *Results) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.irs")
	if err := SaveSnapshot(path, res); err != nil {
		t.Fatal(err)
	}
	return path
}

// A valid store short-circuits inference: the loaded pair is byte-identical
// to the analyzed one, the verify and correlate stages are skipped/absent,
// and provenance names the store.
func TestLoadSnapshotFromStore(t *testing.T) {
	ds, res := loadE2E(t)
	store := saveE2ESnapshot(t, res)

	ds2, res2, prov, rep, err := LoadSnapshotOpts(context.Background(), ds.Dir, LoadOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if prov.Source != "store" || prov.StorePath != store || prov.CodecVersion != resultstore.Version {
		t.Fatalf("provenance = %+v, want store provenance", prov)
	}
	if prov.Fallback != "" {
		t.Fatalf("unexpected fallback: %q", prov.Fallback)
	}
	if ds2.Scenario.Hours != ds.Scenario.Hours {
		t.Fatalf("hours %d != %d", ds2.Scenario.Hours, ds.Scenario.Hours)
	}
	if !reflect.DeepEqual(res.Correlate, res2.Correlate) {
		t.Fatal("store-loaded correlation differs from the analyzed original")
	}
	if res2.Summary.Total != res.Summary.Total {
		t.Fatalf("summary diverged: %d != %d", res2.Summary.Total, res.Summary.Total)
	}
	if m := rep.Stage(StageLoadStore); m == nil || m.Status != pipeline.StatusOK {
		t.Fatalf("load-store stage = %+v, want ok", m)
	}
	if m := rep.Stage(StageVerify); m == nil || m.Status != pipeline.StatusSkipped {
		t.Fatalf("verify stage = %+v, want skipped", m)
	}
	if m := rep.Stage(StageCorrelate); m != nil {
		t.Fatalf("correlate ran despite store load: %+v", m)
	}
	for _, name := range []string{StageCharacterize, StageStatTests, StageThreatIntel, StageMalware} {
		if m := rep.Stage(name); m == nil || m.Status != pipeline.StatusOK {
			t.Fatalf("stage %q = %+v, want ok", name, m)
		}
	}
}

// A corrupt store must never take the load down: it falls back to raw
// analysis with the choice surfaced in provenance and the stage report.
func TestLoadSnapshotStoreFallback(t *testing.T) {
	ds, res := loadE2E(t)
	store := saveE2ESnapshot(t, res)
	if err := faultfs.BitFlip(store, 40, 0x20); err != nil {
		t.Fatal(err)
	}

	_, res2, prov, rep, err := LoadSnapshotOpts(context.Background(), ds.Dir, LoadOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if prov.Source != "analyze" || prov.Fallback == "" {
		t.Fatalf("provenance = %+v, want analyze with fallback reason", prov)
	}
	if m := rep.Stage(StageLoadStore); m == nil || m.Status != pipeline.StatusSkipped {
		t.Fatalf("load-store stage = %+v, want skipped", m)
	} else if m.ErrorClass != "corrupt" {
		t.Fatalf("load-store errorClass = %q, want corrupt", m.ErrorClass)
	}
	for _, name := range []string{StageVerify, StageCorrelate} {
		if m := rep.Stage(name); m == nil || m.Status != pipeline.StatusOK {
			t.Fatalf("stage %q = %+v, want ok (full analysis fallback)", name, m)
		}
	}
	if !reflect.DeepEqual(res.Correlate, res2.Correlate) {
		t.Fatal("fallback analysis diverged from original")
	}
}

// RequireStore turns the fallback into a failure — the hot-reload
// contract: a bad artifact keeps the old snapshot, it never triggers a
// surprise full re-analysis inside the reload deadline.
func TestLoadSnapshotRequireStore(t *testing.T) {
	ds, res := loadE2E(t)
	store := saveE2ESnapshot(t, res)
	if err := faultfs.TruncateTail(store, 30); err != nil {
		t.Fatal(err)
	}
	_, _, _, rep, err := LoadSnapshotOpts(context.Background(), ds.Dir,
		LoadOptions{Store: store, RequireStore: true})
	if err == nil {
		t.Fatal("truncated store accepted under RequireStore")
	}
	if !errors.Is(err, resultstore.ErrTruncated) {
		t.Fatalf("error %v does not wrap resultstore.ErrTruncated", err)
	}
	if m := rep.Stage(StageLoadStore); m == nil || m.Status != pipeline.StatusFailed {
		t.Fatalf("load-store stage = %+v, want failed", m)
	} else if m.ErrorClass != "retryable" {
		t.Fatalf("load-store errorClass = %q, want retryable", m.ErrorClass)
	}
}

// A store that decodes cleanly but belongs to a different world is stale,
// and staleness is permanent.
func TestOpenSnapshotStale(t *testing.T) {
	ds, res := loadE2E(t)
	store := saveE2ESnapshot(t, res)

	other := *ds
	other.Scenario.Hours = ds.Scenario.Hours + 1
	_, err := other.OpenSnapshot(store)
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("hour-span mismatch error = %v, want ErrSnapshotMismatch", err)
	}
	if resultstore.IsRetryable(err) {
		t.Fatal("stale snapshot classified retryable")
	}
	if got := storeErrClass(err); got != "stale" {
		t.Fatalf("storeErrClass = %q, want stale", got)
	}
}

// settle waits for the goroutine count to come back to base: a load whose
// open failed leaves its store read running, and the read must end on its
// own with nobody to receive it.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the load", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoadSnapshotArms crosses what can be wrong with the store, whether the
// store is required, and whether the dataset opens. The store is read on its
// own goroutine while the dataset opens; what a caller sees — error class,
// provenance, the stage report's names and statuses — is what the serial
// load returned, and no arm leaves a goroutine behind.
func TestLoadSnapshotArms(t *testing.T) {
	cfg := DefaultConfig(0.002, 31)
	cfg.Hours = 6
	ds, err := Generate(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	good := filepath.Join(tmp, "good.irs")
	if err := SaveSnapshot(good, res); err != nil {
		t.Fatal(err)
	}
	damaged := func(name string, damage func(path string) error) string {
		raw, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := damage(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Two stores that decode cleanly and belong to another world: one hour
	// longer, and naming a device past the end of the inventory.
	foreign := func(name string, edit func(e *correlate.ResultExport)) string {
		e := res.Correlate.Export()
		edit(e)
		other, err := e.Result()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(tmp, name)
		if err := resultstore.WriteResult(path, other); err != nil {
			t.Fatal(err)
		}
		return path
	}

	type storeCase struct {
		name, path string
		// errIs and class are what the store's failure is classified as;
		// errIs nil means the store loads.
		errIs error
		class string
	}
	stores := []storeCase{
		{"good", good, nil, ""},
		{"missing", filepath.Join(tmp, "absent.irs"), fs.ErrNotExist, "retryable"},
		{"truncated", damaged("truncated.irs", func(p string) error { return faultfs.TruncateTail(p, 30) }), resultstore.ErrTruncated, "retryable"},
		{"bit-flipped", damaged("flipped.irs", func(p string) error { return faultfs.BitFlip(p, 40, 0x20) }), resultstore.ErrBadFormat, "corrupt"},
		{"stale hours", foreign("longer.irs", func(e *correlate.ResultExport) {
			e.Hourly = append(e.Hourly, correlate.HourStats{Hour: e.Hours})
			e.Hours++
		}), ErrSnapshotMismatch, "stale"},
		{"device outside inventory", foreign("stranger.irs", func(e *correlate.ResultExport) {
			e.Devices = append(e.Devices, correlate.DeviceExport{ID: int32(ds.Inventory.Len() + 5), Records: 1})
		}), ErrSnapshotMismatch, "stale"},
	}

	badInventory := copyDataset(t, ds.Dir)
	if err := os.WriteFile(filepath.Join(badInventory, InventoryFile), []byte("{not an inventory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badManifest := copyDataset(t, ds.Dir)
	manifest, err := os.ReadFile(filepath.Join(badManifest, scenario.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badManifest, scenario.ManifestFile),
		[]byte(strings.Replace(string(manifest), `"Seed": 31`, `"Seed": 32`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	type dirCase struct {
		name, dir string
		errIs     error  // nil: the dataset opens
		errHas    string // what the open error names
	}
	dirs := []dirCase{
		{"dataset opens", ds.Dir, nil, ""},
		{"unreadable inventory", badInventory, nil, "core: load inventory"},
		{"tampered run.json", badManifest, scenario.ErrManifestMismatch, "core: verify provenance"},
	}

	base := runtime.NumGoroutine()
	for _, dc := range dirs {
		for _, sc := range stores {
			for _, require := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/require=%v", dc.name, sc.name, require)
				t.Run(name, func(t *testing.T) {
					gotDS, gotRes, prov, rep, err := LoadSnapshotOpts(context.Background(), dc.dir,
						LoadOptions{Store: sc.path, RequireStore: require})
					shape := func(want string) {
						t.Helper()
						var got []string
						for _, stage := range []string{StageOpen, StageLoadStore, StageVerify, StageLoad} {
							m := rep.Stage(stage)
							if m == nil {
								t.Fatalf("stage %q missing from the report", stage)
							}
							s := stage + "=" + m.Status
							if m.ErrorClass != "" {
								s += "/" + m.ErrorClass
							}
							got = append(got, s)
						}
						if g := strings.Join(got, " "); g != want {
							t.Fatalf("stages %q, want %q", g, want)
						}
					}
					switch {
					case dc.errHas != "":
						// The dataset does not open: nothing is returned, no
						// store was consulted, and the read that was already
						// under way is abandoned.
						if err == nil || !strings.Contains(err.Error(), dc.errHas) || (dc.errIs != nil && !errors.Is(err, dc.errIs)) {
							t.Fatalf("err = %v, want one naming %q", err, dc.errHas)
						}
						if gotDS != nil || gotRes != nil || prov != (Provenance{Source: "analyze"}) {
							t.Fatalf("a failed open returned %v, %v, %+v", gotDS, gotRes, prov)
						}
						shape("open=failed/internal load-store=skipped verify=skipped analyze=skipped")
					case sc.errIs == nil:
						if err != nil {
							t.Fatal(err)
						}
						want := Provenance{Source: "store", StorePath: sc.path, CodecVersion: resultstore.Version}
						if prov != want {
							t.Fatalf("provenance %+v, want %+v", prov, want)
						}
						shape("open=ok load-store=ok verify=skipped analyze=ok")
						if rep.Stage(StageCorrelate) != nil {
							t.Fatal("correlate ran although the store loaded")
						}
						if gotRes.Views.Digest() != res.Views.Digest() {
							t.Fatalf("loaded digest %08x, analyzed %08x", gotRes.Views.Digest(), res.Views.Digest())
						}
					case require:
						if !errors.Is(err, sc.errIs) || !strings.HasPrefix(err.Error(), "core: load store: ") {
							t.Fatalf("err = %v, want core: load store: … wrapping %v", err, sc.errIs)
						}
						if gotDS != nil || gotRes != nil || prov != (Provenance{Source: "analyze"}) {
							t.Fatalf("a refused store returned %v, %v, %+v", gotDS, gotRes, prov)
						}
						shape("open=ok load-store=failed/" + sc.class + " verify=skipped analyze=skipped")
					default:
						if err != nil {
							t.Fatal(err)
						}
						if prov.Source != "analyze" || prov.StorePath != "" || prov.Fallback == "" {
							t.Fatalf("provenance %+v, want analyze with the fallback's reason", prov)
						}
						shape("open=ok load-store=skipped/" + sc.class + " verify=ok analyze=ok")
						if m := rep.Stage(StageCorrelate); m == nil || m.Status != "ok" {
							t.Fatalf("correlate stage %+v, want ok", m)
						}
						if gotRes.Views.Digest() != res.Views.Digest() {
							t.Fatalf("fallback digest %08x, analyzed %08x", gotRes.Views.Digest(), res.Views.Digest())
						}
					}
					settle(t, base+1, name) // +1: this subtest's own goroutine
				})
			}
		}
	}
	settle(t, base, "after every arm")
}
