package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/scenario"
	"iotscope/internal/wgen"
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

// decodedDigest hashes what a dataset's hour files say rather than how
// they are compressed: per hour in ascending order, the header's hour, every
// record in file order in its 21-byte wire encoding, then the footer count.
// compress/flate may emit different bytes under another Go release; the
// records may not differ under any.
func decodedDigest(t *testing.T, dir string) string {
	t.Helper()
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for _, hour := range hours {
		r, err := flowtuple.Open(flowtuple.HourPath(dir, hour))
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.LittleEndian.AppendUint32(buf[:0], r.Header().Hour)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			buf = flowtuple.AppendRecord(buf, rec)
			if len(buf) >= 1<<16 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(binary.LittleEndian.AppendUint32(buf, r.Header().Count))
		r.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bundledDecoded pins decodedDigest of every bundled scenario at scale
// 0.001, seed 77, over the scenario's own window. The values were computed
// at commit ad93ace, whose generator was one serial loop, so a match means
// "hours on workers yield the serial render's records", not merely that
// the parallel render agrees with itself. Regenerate only with a bumped
// scenario version.
var bundledDecoded = map[string]string{
	"cps-campaign":       "bcbef26621195d453db01a5e2dd3bf45213b39a5919c81d754485e7d8e2f44eb",
	"mirai-wave":         "756abba0d2608897280c99fe465f3ad11d4f74f7912e60924cf59b15700a4651",
	"paper-default":      "6ff0914f3c140f3ad2d83e7928f7d7731f4e2e1b04a20e8c0bed9bb9003e8874",
	"smart-home-diurnal": "380fe2c90b821295c2af95e3a508de7b0d8eca596ba7b0969ce98d3279fc3526",
	"stealth-scan":       "ca057f476f73dc69544917faa6d219ad83fe0efddecacba06dcd315776d0270f",
	"telescope-16":       "399e8a0b9528cc9e2cb860b2a58aeb9d8fd00bedafc6c9b1ea1d7d3c0c67987f",
	"telescope-24":       "af806b5b6aa16420d11b7b596a482bf4efa065f6b0084e44c400181d9ae333ec",
	"udp-amplification":  "250ecc2ea884f108152595e4c7be9495b7fdfd05ff7a3c2f24566c2994dd1f58",
}

// filesDigest hashes every file of a dataset directory but its hour files,
// name and bytes, in name order: truth.json, the inventory, the
// threat-intel and malware files, scenario.json, scenario-config.json and
// run.json. threatintel and malwaredb read truth.json's ActivityWeight, so
// this is what the generator plants beyond the records.
func filesDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), "hour-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, e.Name())
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bundledFiles pins filesDigest of every bundled scenario at scale 0.001,
// seed 77, beside bundledDecoded. The values were computed at commit
// 048c367, before the generator's actor model was converged; never edit
// them to make a refactor pass.
var bundledFiles = map[string]string{
	"cps-campaign":       "50ecb2bfe38d6cd3932133232201ca71ed1606e6526a680405e645502ef512d4",
	"mirai-wave":         "e91f931a76b8654270728d7c0532a073b75b410c3289beb761ad23678b682368",
	"paper-default":      "e6862c0815d48e2003efc5fb77c749b32fef89377516ae080c942f8df93146d6",
	"smart-home-diurnal": "71b86b63fa6cc7a0551b29eccbb4e206460bf6bff69cd0ae9c7e7e44bffa427d",
	"stealth-scan":       "d707ebdeb4af7811159d3ba6fafaa3d1efa118ffe7c449c7facecc6881d4d2c5",
	"telescope-16":       "274adbe1d0afa552e59fc788436b3db32b46d76132d8cb3f6f7a3d896d7d8819",
	"telescope-24":       "7b19262bd5feb0b1b42f9cc46c0aa691d094baa5c23756aa3311828e49f19715",
	"udp-amplification":  "ce249d395db21d2e6d76966a13d2e503229f3532cdbd19905fe75d990f62e24d",
}

// The provenance contract behind run.json: the same scenario at the same
// seed yields a byte-identical dataset at any core count — hour files,
// inventory, intel, manifest and config alike — and the same RunStats.
// Hours are rendered on min(GOMAXPROCS, Hours) workers, so 1 is the serial
// loop, 2 is what CI has, and 8 oversubscribes it; each scenario keeps its
// own window, where the planted onsets sit tens of hours deep.
func TestScenarioDatasetByteIdentical(t *testing.T) {
	const scale, seed = 0.001, 77
	for _, m := range scenario.List() {
		t.Run(m.Name, func(t *testing.T) {
			rs, err := scenario.Resolve(m.Ref(), scenario.Options{Scale: scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			render := func(procs int) (string, [32]byte, wgen.RunStats) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dir := t.TempDir()
				ds, err := GenerateScenario(DefaultConfig(scale, seed), rs, dir)
				if err != nil {
					t.Fatal(err)
				}
				// No planted device is first seen outside the capture.
				for id, h := range ds.Truth.OnsetHour {
					if h < 0 || h >= rs.Scenario.Hours {
						t.Errorf("device %d planted with onset %d outside [0, %d)", id, h, rs.Scenario.Hours)
					}
				}
				return dir, hashDatasetDir(t, dir), ds.GenStats
			}
			dir, base, baseStats := render(1)
			if got := decodedDigest(t, dir); got != bundledDecoded[m.Name] {
				t.Errorf("decoded records %s, the serial generator's were %s", got, bundledDecoded[m.Name])
			}
			if got := filesDigest(t, dir); got != bundledFiles[m.Name] {
				t.Errorf("non-hour files %s, pinned %s", got, bundledFiles[m.Name])
			}
			if baseStats.Collector.HoursWritten != rs.Scenario.Hours {
				t.Errorf("%d hours written of %d", baseStats.Collector.HoursWritten, rs.Scenario.Hours)
			}
			for _, procs := range []int{2, 8} {
				_, sum, stats := render(procs)
				if sum != base {
					t.Errorf("GOMAXPROCS=%d produces different bytes than GOMAXPROCS=1", procs)
				}
				if stats != baseStats {
					t.Errorf("GOMAXPROCS=%d: stats %+v, want %+v", procs, stats, baseStats)
				}
			}
		})
	}
}

// The scale-0.001 pins above leave sampling paths that only run at larger
// populations unpinned (a service's CPS members, a spilled victim, a
// relaxed event selector); paper-default at scale 0.005, seed 77, over its
// full 143 hours, pins them. Recorded at 048c367 like bundledFiles.
const (
	paperDefault005Decoded = "130296185e03a53b05f32ffce754ddf1f4e5d2efc3d829f8d750327356dec39d"
	paperDefault005Files   = "0806c729dff215486af7c9df02bdc5e19cd22baeaa04ab882eaead9e4c423f6f"
)

func TestPaperDefaultScale005Pinned(t *testing.T) {
	const scale, seed = 0.005, 77
	rs, err := scenario.Resolve(scenario.DefaultName, scenario.Options{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := GenerateScenario(DefaultConfig(scale, seed), rs, dir); err != nil {
		t.Fatal(err)
	}
	if got := decodedDigest(t, dir); got != paperDefault005Decoded {
		t.Errorf("decoded records %s, pinned %s", got, paperDefault005Decoded)
	}
	if got := filesDigest(t, dir); got != paperDefault005Files {
		t.Errorf("non-hour files %s, pinned %s", got, paperDefault005Files)
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

// The generator lands hours on several workers, so within a render hour
// k+2 can reach the directory before hour k. No reader can see that: the
// inventory, the config and run.json are written only after wgen.Run has
// returned with every hour published, so Open refuses a directory that is
// still being generated (all hour files present, nothing else), and a
// render that failed leaves no run.json vouching for it.
func TestHalfGeneratedDatasetDoesNotOpen(t *testing.T) {
	rs, err := scenario.Resolve("stealth-scan@1", scenario.Options{Scale: 0.002, Seed: 9, Hours: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0.002, 9)
	cfg.Hours = 6

	hoursOnly := t.TempDir()
	gen, err := wgen.New(rs.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Run(context.Background(), hoursOnly); err != nil {
		t.Fatal(err)
	}
	if hours, _ := flowtuple.DatasetHours(hoursOnly); len(hours) != 6 {
		t.Fatalf("rendered hours %v", hours)
	}
	if _, err := Open(hoursOnly); err == nil {
		t.Fatal("opened a directory holding hour files only")
	}

	failed := t.TempDir()
	if err := os.Mkdir(flowtuple.HourPath(failed, 3)+flowtuple.TmpSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateScenario(cfg, rs, failed); err == nil || !strings.Contains(err.Error(), "hour-003") {
		t.Fatalf("unwritable hour 3: %v", err)
	}
	entries, err := os.ReadDir(failed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && (!strings.HasPrefix(name, "hour-") || strings.HasSuffix(name, flowtuple.TmpSuffix)) {
			t.Errorf("failed render left %s", name)
		}
	}
	if _, err := Open(failed); err == nil {
		t.Fatal("opened a dataset whose render failed")
	}
}
