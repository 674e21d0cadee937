package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"iotscope/internal/scenario"
)

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"missing out", nil},
		{"unknown flag", []string{"-bogus"}},
		{"zero scale", []string{"-out", "x", "-scale", "0"}},
		{"negative scale", []string{"-out", "x", "-scale", "-0.5"}},
		{"scale above one", []string{"-out", "x", "-scale", "1.5"}},
		{"NaN scale", []string{"-out", "x", "-scale", "NaN"}},
		{"negative hours", []string{"-out", "x", "-hours", "-1"}},
		{"unknown scenario", []string{"-out", "x", "-scenario", "no-such-scenario"}},
		{"unknown scenario version", []string{"-out", "x", "-scenario", "paper-default@99"}},
		{"missing scenario file", []string{"-out", "x", "-scenario", "no/such/file.json"}},
		{"stray argument", []string{"-out", "x", "extra"}},
		{"print-config swallowing a flag", []string{"-print-config", "-scenario", "mirai-wave"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args, io.Discard, io.Discard); err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
		})
	}
}

func TestRunGeneratesDataset(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-scale", "0.002", "-seed", "3", "-hours", "4"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"scenario.json", "inventory.jsonl", "threat-events.jsonl",
		"malware-reports.xml", "malware-catalog.jsonl", "truth.json",
		"hour-000.ft.gz", "hour-003.ft.gz",
		"scenario-config.json", "run.json",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestRunScenarioByName(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-out", dir, "-scenario", "stealth-scan@1",
		"-scale", "0.002", "-seed", "3", "-hours", "2"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scenario=stealth-scan@1") {
		t.Errorf("output does not name the scenario:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "config hash:          sha256:") {
		t.Errorf("output does not report the config hash:\n%s", out.String())
	}
	// The last line is the throughput summary; -hours 2 caps the workers.
	last := regexp.MustCompile(`\ngenerated in \S+ \(\d+ flowtuples/s, [12] workers\)\n$`)
	if !last.MatchString(out.String()) {
		t.Errorf("output does not end with the generation rate:\n%s", out.String())
	}
}

func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list-scenarios"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 8 {
		t.Fatalf("expected at least 8 bundled scenarios, got %d:\n%s", len(lines), out.String())
	}
	var sawDefault bool
	for _, l := range lines {
		fields := strings.SplitN(l, "\t", 3)
		if len(fields) != 3 {
			t.Errorf("line not ref<TAB>kinds<TAB>description: %q", l)
			continue
		}
		if fields[0] == "paper-default@1" {
			sawDefault = true
		}
	}
	if !sawDefault {
		t.Error("paper-default@1 not listed")
	}
}

// -print-config writes a usable scenario file: for every bundled ref, stdout
// is exactly the canonical JSON (the hash goes to stderr), and that file
// resolves to the bundled ref's config hash.
func TestPrintConfig(t *testing.T) {
	for _, m := range scenario.List() {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-print-config", m.Ref()}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		want, err := scenario.Resolve(m.Ref(), scenario.Options{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := stderr.String(); got != "config hash: "+want.ConfigHash+"\n" {
			t.Errorf("%s: stderr %q does not report hash %s", m.Ref(), got, want.ConfigHash)
		}
		path := filepath.Join(t.TempDir(), m.Name+".json")
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := scenario.Resolve(path, scenario.Options{Scale: 1})
		if err != nil {
			t.Fatalf("%s: printed config is not a scenario file: %v", m.Ref(), err)
		}
		if fromFile.ConfigHash != want.ConfigHash {
			t.Errorf("%s: printed file hashes to %s, bundled %s", m.Ref(), fromFile.ConfigHash, want.ConfigHash)
		}
		// Printing the file prints the same bytes.
		var again bytes.Buffer
		if err := run([]string{"-print-config", path}, &again, io.Discard); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), stdout.Bytes()) {
			t.Errorf("%s: printing the printed file changes it", m.Ref())
		}
	}
}
