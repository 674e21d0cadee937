package scenario

import (
	"bytes"
	"crypto/sha256"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotscope/internal/wgen"
)

// Every bundled scenario decodes, validates, and resolves at a tiny scale.
// List() panics on a broken bundle, so this test is the build-time pin that
// it never does.
func TestBundledScenariosDecode(t *testing.T) {
	metas := List()
	if len(metas) < 8 {
		t.Fatalf("bundled library shrank: %d scenarios", len(metas))
	}
	seen := map[string]bool{}
	for _, m := range metas {
		if seen[m.Ref()] {
			t.Errorf("duplicate bundled ref %s", m.Ref())
		}
		seen[m.Ref()] = true
		if m.Description == "" || m.Hours <= 0 || len(m.Kinds) == 0 {
			t.Errorf("%s: incomplete metadata %+v", m.Ref(), m)
		}
		rs, err := Resolve(m.Ref(), Options{Scale: 0.001, Seed: 7})
		if err != nil {
			t.Errorf("%s does not resolve: %v", m.Ref(), err)
			continue
		}
		if rs.Source != "bundled:"+m.Ref() {
			t.Errorf("%s: source %q", m.Ref(), rs.Source)
		}
		if !strings.HasPrefix(rs.ConfigHash, "sha256:") {
			t.Errorf("%s: bad config hash %q", m.Ref(), rs.ConfigHash)
		}
	}
	for _, want := range []string{
		"paper-default@1", "mirai-wave@1", "udp-amplification@1",
		"stealth-scan@1", "cps-campaign@1", "smart-home-diurnal@1",
		"telescope-16@1", "telescope-24@1",
	} {
		if !seen[want] {
			t.Errorf("bundled library missing %s", want)
		}
	}
}

// The headline acceptance pin: the bundled paper-default scenario resolves
// to exactly wgen.Default(), and renders a byte-identical dataset.
func TestPaperDefaultMatchesWgenDefault(t *testing.T) {
	rs, err := Default(0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := wgen.Default(0.002, 42)
	if !reflect.DeepEqual(rs.Scenario, want) {
		t.Fatal("resolved paper-default scenario differs from wgen.Default()")
	}

	// Render both over a short window and compare hour files byte for byte.
	render := func(sc wgen.Scenario) [32]byte {
		sc.Hours = 6
		g, err := wgen.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := g.Run(dir); err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir)
	}
	a, b := render(rs.Scenario), render(want)
	if !bytes.Equal(a[:], b[:]) {
		t.Fatal("paper-default renders different bytes than wgen.Default()")
	}
}

// The committed JSON files are exactly what tools/scenariogen writes: the
// canonical encoding of what they decode to. Regenerate with
// `go run ./tools/scenariogen` if a definition changes.
func TestBundledFilesAreCanonical(t *testing.T) {
	entries, err := bundled.ReadDir("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := bundled.ReadFile("scenarios/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := wgen.DecodeConfig(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		canon, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, canon) {
			t.Errorf("%s is not canonical; regenerate with `go run ./tools/scenariogen`", e.Name())
		}
		if want := cfg.Name + "@" + "1" + ".json"; cfg.Version == 1 && e.Name() != want {
			t.Errorf("%s: file name does not match %s@%d", e.Name(), cfg.Name, cfg.Version)
		}
	}
}

func TestLoadRefForms(t *testing.T) {
	byName, err := Load("paper-default")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Load("paper-default@1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byName, pinned) {
		t.Fatal("unpinned load does not pick the highest version")
	}
	if _, err := Load("no-such"); err == nil || !strings.Contains(err.Error(), "paper-default@1") {
		t.Fatalf("unknown name error does not list available scenarios: %v", err)
	}
	if _, err := Load("paper-default@9"); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := Load("paper-default@x"); err == nil {
		t.Fatal("malformed version accepted")
	}
	if _, err := Load("@1"); err == nil {
		t.Fatal("empty name accepted")
	}
}

// A scenario file outside the bundle resolves with a file: source and the
// bundled copy's hash — which for stealth-scan is the hash its hand-written
// TOML form had before the bundle became JSON-only.
func TestResolveFileRef(t *testing.T) {
	cfg, err := Load("stealth-scan")
	if err != nil {
		t.Fatal(err)
	}
	canon, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "my-scan.json")
	if err := os.WriteFile(path, canon, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Resolve(path, Options{Scale: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Source != "file:my-scan.json" {
		t.Fatalf("source = %q", rs.Source)
	}
	bundledRS, err := Resolve("stealth-scan", Options{Scale: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ConfigHash != bundledRS.ConfigHash {
		t.Fatal("same config hashes differently from file vs bundle")
	}
	if want := "sha256:3e78578a8f041a4755263af4b9707c53039443436c197287205d9fd25b4f0a7e"; rs.ConfigHash != want {
		t.Fatalf("stealth-scan@1 hashes to %s, want %s", rs.ConfigHash, want)
	}
	if _, err := Resolve(filepath.Join(dir, "absent.json"), Options{Scale: 0.001, Seed: 1}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Hours in Options override the config's window; Scale/Seed land in the
// resolved scenario and the manifest.
func TestResolveOptions(t *testing.T) {
	rs, err := Resolve("mirai-wave", Options{Scale: 0.004, Seed: 9, Hours: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Scenario.Hours != 10 {
		t.Fatalf("hours override ignored: %d", rs.Scenario.Hours)
	}
	m := rs.Manifest()
	if m.Scenario != "mirai-wave" || m.Version != 1 || m.Seed != 9 || m.Scale != 0.004 || m.Hours != 10 {
		t.Fatalf("manifest fields wrong: %+v", m)
	}
	if m.Generators["mirai-wave"] != 1 || m.Generators["tcp-scan"] != 1 {
		t.Fatalf("generator versions missing: %v", m.Generators)
	}
}

// hashDir hashes every file in a directory, in name order.
func hashDir(t *testing.T, dir string) [32]byte {
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
