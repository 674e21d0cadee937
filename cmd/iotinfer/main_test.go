package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotscope/internal/core"
	"iotscope/internal/flowtuple"
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
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", t.TempDir()}, io.Discard); err == nil {
		t.Fatal("empty dataset dir accepted")
	}
	for _, flag := range []string{"-workers", "-shards"} {
		err := run([]string{"-data", t.TempDir(), flag, "-2"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), flag+" must not be negative") {
			t.Fatalf("%s -2: %v, want it refused", flag, err)
		}
	}
}

// An hour missing from the scenario's span, in the middle or at the end,
// fails strict analysis with an error naming it; -lenient analyzes the
// rest and names the hour in the correlate stage's note.
func TestRunRefusesIncompleteDataset(t *testing.T) {
	dir := testDataset(t)
	for _, hour := range []int{1, 3} {
		path := flowtuple.HourPath(dir, hour)
		aside := filepath.Join(t.TempDir(), "aside")
		if err := os.Rename(path, aside); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-data", dir}, io.Discard)
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), fmt.Sprintf("missing hour %d", hour)) {
			t.Fatalf("hour %d missing: %v, want an error naming it", hour, err)
		}
		report := filepath.Join(t.TempDir(), "stages.json")
		if err := run([]string{"-data", dir, "-lenient", "-stage-report", report}, io.Discard); err != nil {
			t.Fatalf("hour %d missing, -lenient: %v", hour, err)
		}
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct{ Stages []struct{ Name, Note string } }
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("missing hours [%d]", hour); rep.Stages[0].Name != core.StageCorrelate || rep.Stages[0].Note != want {
			t.Fatalf("hour %d missing, -lenient: first stage %+v, want correlate noting %q", hour, rep.Stages[0], want)
		}
		if err := os.Rename(aside, path); err != nil {
			t.Fatal(err)
		}
	}
}

// Text mode is the whole paper reproduction: the header line, then every
// section report.WriteAll renders, in the paper's order.
func TestRunText(t *testing.T) {
	dir := testDataset(t)
	var buf bytes.Buffer
	if err := run([]string{"-data", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if head := "iotscope paper reproduction — scale 0.002, seed 3, 4 hours\n\nHeadline inference (Sec. III-B)\n"; !strings.HasPrefix(out, head) {
		t.Fatalf("output does not open with %q:\n%s", head, out)
	}
	at := 0
	for _, title := range []string{
		"Fig. 1a", "Fig. 1b", "Fig. 2", "Fig. 3", "Table I ", "Table II ", "Table III ",
		"Fig. 4", "Fig. 5", "Table IV ", "Fig. 6", "Fig. 7", "Fig. 8a", "Fig. 8b", "Fig. 9",
		"Table V ", "Fig. 10", "Fig. 11", "Table VI ", "Table VII ",
	} {
		i := strings.Index(out[at:], "\n"+title)
		if i < 0 {
			t.Fatalf("section %q missing or out of order", title)
		}
		at += i + 1
	}
}

// -json emits exactly these twelve keys, each the encoding of the analysis
// result or dataset field it is built from.
func TestRunJSON(t *testing.T) {
	dir := testDataset(t)
	var buf bytes.Buffer
	if err := run([]string{"-data", dir, "-json", "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"summary":          res.Summary,
		"statTests":        res.StatTests,
		"threatFlagged":    len(res.Threat.Flagged),
		"threatExplored":   res.Threat.Explored,
		"malwareHashes":    res.Malware.Hashes,
		"malwareFamilies":  res.Malware.Families,
		"malwareDomains":   len(res.Malware.Domains),
		"background":       res.Correlate.Background,
		"datasetScale":     ds.Scenario.Scale,
		"datasetSeed":      ds.Scenario.Seed,
		"datasetHours":     ds.Scenario.Hours,
		"inventoryDevices": ds.Inventory.Len(),
	}
	if len(got) != len(want) {
		t.Errorf("JSON has %d keys, want %d", len(got), len(want))
	}
	for key, v := range want {
		raw, ok := got[key]
		if !ok {
			t.Errorf("JSON lacks %q", key)
			continue
		}
		wantRaw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), wantRaw) {
			t.Errorf("%s = %s, want %s", key, compact.Bytes(), wantRaw)
		}
	}
}

// -save must leave a verifiable result store artifact behind that holds
// the same correlation state a direct analysis produces, and iotserve can
// later open it against the same dataset.
func TestRunSave(t *testing.T) {
	dir := testDataset(t)
	store := filepath.Join(t.TempDir(), "store.irs")
	if err := run([]string{"-data", dir, "-save", store}, io.Discard); err != nil {
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

// The committed reference report is what generating the paper-default
// dataset at scale 0.02, seed 1 and running iotinfer over it prints, byte
// for byte. EXPERIMENTS.md's verdicts are read off that file.
func TestReferenceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and analyzes a scale-0.02 dataset")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "report-scale-0.02.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := core.Generate(core.DefaultConfig(0.02, 1), dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-data", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("report diverges from docs/report-scale-0.02.txt at line %d:\ngot  %q\nwant %q", i+1, g, w)
			}
		}
	}
}
