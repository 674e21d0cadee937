package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotscope/internal/wgen"
)

// bundledHashes pins every bundled definition's identity: the canonical
// config hash each ref has had since it shipped. A definition edited without
// a version bump fails here by name; a new scenario adds its ref and hash.
var bundledHashes = map[string]string{
	"cps-campaign@1":       "sha256:f06605a96051d6e8dcae721db654d4dd5da71e933f327243815a9997af840b39",
	"mirai-wave@1":         "sha256:14aad3e7316536e3033912a35dbe73846df0e249ce2596a96479eb81f5387f0a",
	"paper-default@1":      "sha256:4177e9515eea3632566cc7f704e900d05b3699f782fb5783a53b95b736a74a20",
	"smart-home-diurnal@1": "sha256:4b022f3a7193a26f8697bf1019d6d4386d92030f17f672d99354adcabf364b57",
	"stealth-scan@1":       "sha256:3e78578a8f041a4755263af4b9707c53039443436c197287205d9fd25b4f0a7e",
	"telescope-16@1":       "sha256:9be01063966f05789a13a3fc6a948d018fae74c2ce21b1e39a33a01add747cad",
	"telescope-24@1":       "sha256:3508b6f215b801eb7b8aea5a93f3bd0f86fb96b54adfb817195b5972a5b6fc39",
	"udp-amplification@1":  "sha256:def6313efbe96c8db8f38495369ffad9e3180e06ead7dc9dfb57305442a08205",
}

// Every bundled scenario is listed once and in order, validates, resolves
// at a tiny scale with a bundled: source, survives the file codec unchanged
// (nil-vs-empty and pointer shapes included), and hashes to its pin.
func TestBundledScenariosDecode(t *testing.T) {
	metas := List()
	if len(metas) != len(bundledHashes) {
		t.Fatalf("%d bundled scenarios, %d pinned hashes", len(metas), len(bundledHashes))
	}
	for i, m := range metas {
		if i > 0 && metas[i-1].Ref() >= m.Ref() {
			t.Errorf("library out of order: %s before %s", metas[i-1].Ref(), m.Ref())
		}
		if m.Description == "" || m.Hours <= 0 || len(m.Kinds) == 0 {
			t.Errorf("%s: incomplete metadata %+v", m.Ref(), m)
		}
		cfg, err := Load(m.Ref())
		if err != nil {
			t.Errorf("%s does not load: %v", m.Ref(), err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s does not validate: %v", m.Ref(), err)
		}
		rs, err := Resolve(m.Ref(), Options{Scale: 0.001, Seed: 7})
		if err != nil {
			t.Errorf("%s does not resolve: %v", m.Ref(), err)
			continue
		}
		if rs.Source != "bundled:"+m.Ref() {
			t.Errorf("%s: source %q", m.Ref(), rs.Source)
		}
		if want, ok := bundledHashes[m.Ref()]; !ok {
			t.Errorf("%s has no pinned hash (it hashes to %s)", m.Ref(), rs.ConfigHash)
		} else if rs.ConfigHash != want {
			t.Errorf("%s hashes to %s, pinned %s: a changed definition needs a new version", m.Ref(), rs.ConfigHash, want)
		}
		canon, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := wgen.DecodeConfig(canon)
		if err != nil {
			t.Errorf("%s: canonical JSON does not decode: %v", m.Ref(), err)
		} else if !reflect.DeepEqual(back, cfg) {
			t.Errorf("%s: the file codec changes the definition", m.Ref())
		}
	}
}

// Load hands out a config the caller owns. Scribble over everything
// reachable from one — population shares, telescope, every block's
// parameters — and the next Load still hashes to the pin; a definition that
// cached any part of itself would not.
func TestLoadReturnsFreshConfig(t *testing.T) {
	for ref, want := range bundledHashes {
		first, err := Load(ref)
		if err != nil {
			t.Fatal(err)
		}
		scribble(reflect.ValueOf(first))
		if h, _ := first.Hash(); h == want {
			t.Fatalf("%s: scribbling changed nothing", ref)
		}
		second, err := Load(ref)
		if err != nil {
			t.Fatal(err)
		}
		if first.Telescope == second.Telescope {
			t.Errorf("%s: two loads share a Telescope", ref)
		}
		if h, err := second.Hash(); err != nil || h != want {
			t.Errorf("%s: hashes to %s after a previous load was mutated (%v)", ref, h, err)
		}
	}
}

// scribble overwrites, in place, every number and string reachable from v
// through pointers, interfaces, structs and slices.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.CanSet() {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.CanSet() {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.Float32, reflect.Float64:
		if v.CanSet() {
			v.SetFloat(v.Float() + 1)
		}
	case reflect.String:
		if v.CanSet() {
			v.SetString(v.String() + "x")
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
// bundled definition's hash.
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
	if want := bundledHashes["stealth-scan@1"]; rs.ConfigHash != want {
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
