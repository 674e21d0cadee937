package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"iotscope/internal/devicedb"
)

// Shared end-to-end fixture: generate once, analyze once.
var (
	e2eOnce sync.Once
	e2eErr  error
	e2eDir  string
	e2eDS   *Dataset
	e2eRes  *Results
)

func loadE2E(t *testing.T) (*Dataset, *Results) {
	t.Helper()
	e2eOnce.Do(func() {
		e2eDir, e2eErr = os.MkdirTemp("", "core-e2e-*")
		if e2eErr != nil {
			return
		}
		cfg := DefaultConfig(0.004, 808)
		cfg.Hours = 60
		e2eDS, e2eErr = Generate(cfg, e2eDir)
		if e2eErr != nil {
			return
		}
		e2eRes, e2eErr = e2eDS.Analyze(cfg)
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eDS, e2eRes
}

func TestGenerateWritesAllArtifacts(t *testing.T) {
	ds, _ := loadE2E(t)
	for _, name := range []string{
		ScenarioFile, InventoryFile, ThreatFile,
		MalwareReportsFile, MalwareCatalogFile, TruthFile,
		"hour-000.ft.gz", "hour-059.ft.gz",
	} {
		if _, err := os.Stat(filepath.Join(ds.Dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	if ds.GenStats.Collector.PacketsObserved == 0 {
		t.Error("no packets generated")
	}
	if ds.GenStats.Collector.PacketsDropped != 0 {
		t.Error("packets leaked outside the telescope")
	}
}

func TestAnalyzeRecoversPopulation(t *testing.T) {
	ds, res := loadE2E(t)
	// All devices with onsets inside the shortened window are recovered.
	expected := 0
	for _, id := range ds.Truth.Compromised {
		if ds.Truth.OnsetHour[id] < ds.Scenario.Hours {
			expected++
		}
	}
	if res.Summary.Total != expected {
		t.Fatalf("inferred %d devices, expected %d", res.Summary.Total, expected)
	}
	if res.Summary.PacketsTotal == 0 {
		t.Fatal("no IoT packets")
	}
	// Background exists and was excluded.
	if res.Correlate.Background.Packets == 0 {
		t.Error("no background traffic generated")
	}
}

func TestAnalyzeSectionV(t *testing.T) {
	_, res := loadE2E(t)
	if res.Threat.Explored == 0 {
		t.Fatal("nothing explored")
	}
	if len(res.Threat.Flagged) == 0 {
		t.Error("no threat-flagged devices")
	}
	if len(res.Malware.Hashes) == 0 || len(res.Malware.Families) == 0 {
		t.Errorf("malware correlation empty: %d hashes %d families",
			len(res.Malware.Hashes), len(res.Malware.Families))
	}
	if len(res.Malware.Families) > 11 {
		t.Errorf("families %d > 11", len(res.Malware.Families))
	}
}

func TestOpenRoundTrip(t *testing.T) {
	ds, res := loadE2E(t)
	reopened, err := Open(ds.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Inventory.Len() != ds.Inventory.Len() {
		t.Fatalf("inventory %d want %d", reopened.Inventory.Len(), ds.Inventory.Len())
	}
	if reopened.Threat.Len() != ds.Threat.Len() {
		t.Fatalf("threat events %d want %d", reopened.Threat.Len(), ds.Threat.Len())
	}
	if reopened.Malware.Len() != ds.Malware.Len() {
		t.Fatalf("malware reports %d want %d", reopened.Malware.Len(), ds.Malware.Len())
	}
	if len(reopened.Truth.Compromised) != len(ds.Truth.Compromised) {
		t.Fatal("truth diverged")
	}
	// Registry rebuild gives identical ISP metadata.
	if len(reopened.Registry.ISPs) != len(ds.Registry.ISPs) {
		t.Fatal("registry diverged")
	}

	// Re-analysis of the reopened dataset matches.
	cfg := DefaultConfig(reopened.Scenario.Scale, reopened.Scenario.Seed)
	res2, err := reopened.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.Total != res.Summary.Total ||
		res2.Summary.PacketsTotal != res.Summary.PacketsTotal {
		t.Fatalf("re-analysis diverged: %+v vs %+v", res2.Summary, res.Summary)
	}
	if len(res2.Malware.Hashes) != len(res.Malware.Hashes) {
		t.Fatal("malware correlation diverged")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("opened empty dir")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	ds, _ := loadE2E(t)
	// The persisted scenario must preserve the dark prefix and events.
	reopened, err := Open(ds.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Scenario.Geo.DarkPrefix != ds.Scenario.Geo.DarkPrefix {
		t.Fatalf("dark prefix %v want %v",
			reopened.Scenario.Geo.DarkPrefix, ds.Scenario.Geo.DarkPrefix)
	}
	if len(reopened.Scenario.Backscatter.Events) != len(ds.Scenario.Backscatter.Events) {
		t.Fatal("events lost in persistence")
	}
	if reopened.Scenario.Backscatter.Events[0].Category != devicedb.CPS {
		t.Fatal("event category mangled")
	}
}

// testdata/scenario-pr18.json was written by the build before Scenario
// embedded Population (darksim -scale 0.002 -seed 5 -hours 6). An embedded
// struct flattens, so the file keeps its keys and their order: this build
// writes the same bytes, and a dataset carrying the old file opens to the
// same Scenario.
func TestScenarioJSONKeysUnchanged(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "scenario-pr18.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0.002, 5)
	cfg.Hours = 6
	ds, err := Generate(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ds.Dir, ScenarioFile)
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("scenario.json differs from the one the previous build wrote (%v)", err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(ds.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reopened.Scenario, ds.Scenario) {
		t.Fatal("a previous build's scenario.json opens to a different Scenario")
	}
	if reopened.Scenario.CompromisedTotal != 26881 || len(reopened.Scenario.ConsumerCountryShares) != 20 {
		t.Fatal("population fields did not decode through the embedded struct")
	}
}

func TestResultsBufferRenderable(t *testing.T) {
	// Smoke: Results feed the report package without panics (full render
	// tested in internal/report).
	_, res := loadE2E(t)
	var buf bytes.Buffer
	for _, r := range res.Threat.ByCategory {
		buf.WriteString(r.Category.String())
	}
	if buf.Len() == 0 {
		t.Fatal("no categories")
	}
}

// Sharded analysis is a drop-in: same correlation export as the unsharded
// run, with one attached metrics record per shard in the stage report.
func TestShardedAnalyzeMatches(t *testing.T) {
	ds, res := loadE2E(t)
	cfg := DefaultConfig(0.004, 808)
	cfg.Hours = 60
	cfg.Shards = 4
	sharded, rep, err := ds.AnalyzeStaged(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Correlate.Export(), sharded.Correlate.Export()) {
		t.Fatal("sharded correlation export diverged from unsharded analysis")
	}
	if res.Summary.Total != sharded.Summary.Total {
		t.Fatalf("summary total %d != %d", sharded.Summary.Total, res.Summary.Total)
	}
	devs := 0
	for k := 0; k < 4; k++ {
		m := rep.Stage(fmt.Sprintf("correlate/shard-%d", k))
		if m == nil {
			t.Fatalf("report missing correlate/shard-%d", k)
		}
		devs += int(m.RecordsOut)
	}
	if devs != len(sharded.Correlate.Devices) {
		t.Fatalf("shard records count %d devices, result has %d", devs, len(sharded.Correlate.Devices))
	}
}
