package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"iotscope/internal/core"
	"iotscope/internal/resultstore"
)

func testDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 3)
	cfg.Hours = 4
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", t.TempDir()}); err == nil {
		t.Fatal("empty dataset dir accepted")
	}
}

func TestRunText(t *testing.T) {
	dir := testDataset(t)
	if err := run([]string{"-data", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	dir := testDataset(t)
	if err := run([]string{"-data", dir, "-json", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
}

// -save must leave a verifiable result store artifact behind that holds
// the same correlation state a direct analysis produces, and iotserve can
// later open it against the same dataset.
func TestRunSave(t *testing.T) {
	dir := testDataset(t)
	store := filepath.Join(t.TempDir(), "store.irs")
	if err := run([]string{"-data", dir, "-save", store}); err != nil {
		t.Fatal(err)
	}
	info, err := resultstore.Verify(store)
	if err != nil {
		t.Fatalf("saved store does not verify: %v", err)
	}
	if info.Kind != resultstore.KindResult || info.Hours != 4 {
		t.Fatalf("store info %+v, want result over 4 hours", info)
	}
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ds.OpenSnapshot(store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Correlate, loaded) {
		t.Fatal("saved store differs from direct analysis")
	}
}
