package core

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"iotscope/internal/scenario"
)

// openBreak damages a dataset so that one of Open's loads fails.
type openBreak struct {
	name string
	// stage is the prefix of the error the load fails with.
	stage string
	do    func(t *testing.T, dir string)
}

// openBreaks lists one break per load, in the order Open reports them.
func openBreaks() []openBreak {
	// garbage overwrites file with an unterminated document, which neither
	// the JSON decoders nor the XML parser accept.
	garbage := func(file string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			t.Helper()
			if err := os.WriteFile(filepath.Join(dir, file), []byte(`<report sha256="x"><network>{"not":`), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// replace edits file in place. A file an earlier break turned to garbage
	// no longer holds old, and stays garbage.
	replace := func(file, old, new string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			t.Helper()
			path := filepath.Join(dir, file)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(raw), old, new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []openBreak{
		{"scenario", "core: read scenario: ", garbage(ScenarioFile)},
		{"registry", "core: rebuild registry: ", replace(ScenarioFile, `"PrefixBits": 16`, `"PrefixBits": 99`)},
		{"inventory", "core: load inventory: ", garbage(InventoryFile)},
		{"threat", "core: load threat repo: ", garbage(ThreatFile)},
		{"malware", "core: load malware reports: ", garbage(MalwareReportsFile)},
		{"catalog", "core: load malware catalog: ", garbage(MalwareCatalogFile)},
		{"truth", "core: load truth: ", garbage(TruthFile)},
		{"provenance", "core: verify provenance: ", replace(scenario.ManifestFile, `"Seed": 31`, `"Seed": 32`)},
	}
}

// TestOpenErrorPrecedence breaks each of Open's eight loads alone and then
// two at a time. Alone, each fails Open with its own error; together, the
// error is the one the earlier load in Open's order fails with alone. No
// failed open leaves a goroutine behind.
func TestOpenErrorPrecedence(t *testing.T) {
	cfg := DefaultConfig(0.002, 31)
	cfg.Hours = 6
	ds, err := Generate(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	// openBroken opens a copy of the dataset with breaks applied, and returns
	// the error with the copy's directory written as DIR.
	openBroken := func(t *testing.T, breaks ...openBreak) string {
		t.Helper()
		dir := copyDataset(t, ds.Dir)
		for _, b := range breaks {
			b.do(t, dir)
		}
		got, err := Open(dir)
		if err == nil || got != nil {
			t.Fatalf("a dataset with %d broken loads: %v, returned a dataset: %v", len(breaks), err, got != nil)
		}
		settle(t, base, "after a failed open")
		return strings.ReplaceAll(err.Error(), dir, "DIR")
	}

	if _, err := Open(copyDataset(t, ds.Dir)); err != nil {
		t.Fatalf("the unbroken copy: %v", err)
	}
	breaks := openBreaks()
	alone := make([]string, len(breaks))
	for i, b := range breaks {
		alone[i] = openBroken(t, b)
		if !strings.HasPrefix(alone[i], b.stage) {
			t.Errorf("%s broken: %s, want an error starting %q", b.name, alone[i], b.stage)
		}
	}
	for i := range breaks {
		for j := i + 1; j < len(breaks); j++ {
			// Applied in both orders: the later break must not mask the
			// earlier one whichever reached the disk first.
			for _, pair := range [][2]openBreak{{breaks[i], breaks[j]}, {breaks[j], breaks[i]}} {
				if got := openBroken(t, pair[0], pair[1]); got != alone[i] {
					t.Errorf("%s then %s broken: %s, want %s's own error %s", pair[0].name, pair[1].name, got, breaks[i].name, alone[i])
				}
			}
		}
	}
}

// TestOpenRejectsTrailingBytes appends bytes after the one document in
// scenario.json and truth.json. Whitespace is allowed; anything else fails
// the open with an error naming the file.
func TestOpenRejectsTrailingBytes(t *testing.T) {
	cfg := DefaultConfig(0.002, 31)
	cfg.Hours = 2
	ds, err := Generate(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ file, tail, stage string }{
		{ScenarioFile, "\n \t\r\n", ""},
		{TruthFile, "\n\n", ""},
		{ScenarioFile, `GARBAGE{"hours":5}`, "core: read scenario: "},
		{TruthFile, "][junk", "core: load truth: "},
		{TruthFile, "{}", "core: load truth: "},
	} {
		dir := copyDataset(t, ds.Dir)
		f, err := os.OpenFile(filepath.Join(dir, tc.file), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tc.tail); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir)
		switch {
		case tc.stage == "" && err != nil:
			t.Errorf("%s + %q: %v", tc.file, tc.tail, err)
		case tc.stage != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.stage) || !strings.Contains(err.Error(), tc.file)):
			t.Errorf("%s + %q: got %v, want an error starting %q and naming the file", tc.file, tc.tail, err, tc.stage)
		}
	}
}
