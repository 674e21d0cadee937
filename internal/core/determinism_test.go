package core

import (
	"bytes"
	"crypto/sha256"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"iotscope/internal/scenario"
)

// hashDatasetDir hashes every file of a dataset directory, in name order —
// the whole-dataset digest, provenance files included.
func hashDatasetDir(t *testing.T, dir string) [32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		io.WriteString(h, e.Name())
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// The provenance contract behind run.json: the same scenario file at the
// same seed yields a byte-identical dataset — across repeated runs and
// across GOMAXPROCS settings, manifest and config files included.
func TestScenarioDatasetByteIdentical(t *testing.T) {
	render := func(procs int) [32]byte {
		if procs > 0 {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
		}
		rs, err := scenario.Resolve("stealth-scan@1", scenario.Options{Scale: 0.002, Seed: 77, Hours: 6})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(0.002, 77)
		cfg.Hours = 6
		dir := t.TempDir()
		if _, err := GenerateScenario(cfg, rs, dir); err != nil {
			t.Fatal(err)
		}
		return hashDatasetDir(t, dir)
	}
	base := render(0)
	if again := render(0); !bytes.Equal(base[:], again[:]) {
		t.Fatal("repeated runs differ")
	}
	if one := render(1); !bytes.Equal(base[:], one[:]) {
		t.Fatal("GOMAXPROCS=1 produces different bytes")
	}
	if eight := render(8); !bytes.Equal(base[:], eight[:]) {
		t.Fatal("GOMAXPROCS=8 produces different bytes")
	}
}

// A dataset generated from an external scenario file is byte-identical to
// one generated from the equivalent bundled scenario, except for the
// manifest's Source line — and the manifest records exactly that. Run for a
// planted-actor scenario and for the one definition that overrides the
// telescope.
func TestScenarioFileMatchesBundled(t *testing.T) {
	render := func(ref string) [32]byte {
		rs, err := scenario.Resolve(ref, scenario.Options{Scale: 0.002, Seed: 3, Hours: 4})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(0.002, 3)
		cfg.Hours = 4
		dir := t.TempDir()
		if _, err := GenerateScenario(cfg, rs, dir); err != nil {
			t.Fatal(err)
		}
		// Drop the manifest from the digest; its Source field legitimately
		// differs between the two provenances.
		if err := os.Remove(filepath.Join(dir, scenario.ManifestFile)); err != nil {
			t.Fatal(err)
		}
		return hashDatasetDir(t, dir)
	}
	for _, ref := range []string{"stealth-scan@1", "telescope-24@1"} {
		cfg0, err := scenario.Load(ref)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := cfg0.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ext := filepath.Join(t.TempDir(), cfg0.Name+".json")
		if err := os.WriteFile(ext, canon, 0o644); err != nil {
			t.Fatal(err)
		}
		fromBundle, fromFile := render(ref), render(ext)
		if !bytes.Equal(fromBundle[:], fromFile[:]) {
			t.Fatalf("%s: external scenario file renders different bytes than the bundled scenario", ref)
		}
	}
}
