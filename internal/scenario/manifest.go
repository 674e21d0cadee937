package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"iotscope/internal/wal"
	"iotscope/internal/wgen"
)

// Dataset provenance files. Every generated dataset carries both: the
// canonical config it was resolved from, and the manifest binding that
// config (by hash) to the run inputs. Neither contains a timestamp — a
// dataset regenerated from its manifest is byte-identical, manifest
// included.
const (
	// ConfigFile is the canonical JSON encoding of the resolved config.
	ConfigFile = "scenario-config.json"
	// ManifestFile is the run manifest. It is written last, atomically:
	// its presence marks a complete, provenance-stamped dataset.
	ManifestFile = "run.json"
)

// ErrManifestMismatch is wrapped by every provenance-verification failure:
// a manifest whose config hash does not match the persisted config, or
// whose fields disagree with the dataset.
var ErrManifestMismatch = errors.New("run manifest does not match dataset")

// RunManifest records exactly which scenario, at which inputs, produced a
// dataset. {Source, Seed, Scale, Hours} + the config file reproduce the
// run; ConfigHash and Generators detect config tampering and generator
// drift respectively.
type RunManifest struct {
	// Scenario and Version name the config; Source records where it came
	// from (bundled:, file:, config:).
	Scenario string
	Version  int
	Source   string
	// Resolved run inputs.
	Seed  uint64
	Scale float64
	Hours int
	// ConfigHash is the canonical hash of the config that generated the
	// dataset; it must round-trip through the persisted config file.
	ConfigHash string
	// Generators maps each actor kind the config uses to the registered
	// generator version that rendered it.
	Generators map[string]int
}

// Manifest builds the run manifest for a resolved scenario.
func (r *Resolved) Manifest() *RunManifest {
	return &RunManifest{
		Scenario:   r.Config.Name,
		Version:    r.Config.Version,
		Source:     r.Source,
		Seed:       r.Scenario.Seed,
		Scale:      r.Scenario.Scale,
		Hours:      r.Scenario.Hours,
		ConfigHash: r.ConfigHash,
		Generators: wgen.GeneratorVersions(r.Config),
	}
}

// WriteRunFiles stamps dir with the resolved scenario's provenance: the
// canonical config, then the manifest. Both are written atomically
// (wal.WriteAtomic), manifest last, so a crash mid-write never leaves a
// dataset that claims provenance it does not have.
func WriteRunFiles(dir string, r *Resolved) error {
	canon, err := r.Config.CanonicalJSON()
	if err != nil {
		return err
	}
	if err := wal.WriteAtomic(nil, filepath.Join(dir, ConfigFile), canon); err != nil {
		return err
	}
	mdata, err := json.MarshalIndent(r.Manifest(), "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteAtomic(nil, filepath.Join(dir, ManifestFile), append(mdata, '\n'))
}

// ReadManifest reads a dataset's run manifest. A dataset predating the
// registry has none; callers distinguish that with errors.Is(err,
// fs.ErrNotExist).
func ReadManifest(dir string) (*RunManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	var m RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: unreadable manifest: %v", ErrManifestMismatch, err)
	}
	return &m, nil
}

// VerifyDir checks a dataset directory's provenance chain: the manifest
// exists, the persisted config decodes and validates, and its canonical
// hash round-trips to the manifest's ConfigHash. Returns the verified
// manifest. Missing files surface as fs.ErrNotExist (legacy dataset);
// everything else wraps ErrManifestMismatch.
func VerifyDir(dir string) (*RunManifest, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, ConfigFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: manifest present but %s missing", ErrManifestMismatch, ConfigFile)
		}
		return nil, err
	}
	cfg, err := wgen.DecodeConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%w: persisted config: %v", ErrManifestMismatch, err)
	}
	hash, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	if hash != m.ConfigHash {
		return nil, fmt.Errorf("%w: config hash %s, manifest claims %s", ErrManifestMismatch, hash, m.ConfigHash)
	}
	if cfg.Name != m.Scenario || cfg.Version != m.Version {
		return nil, fmt.Errorf("%w: config is %s@%d, manifest claims %s@%d",
			ErrManifestMismatch, cfg.Name, cfg.Version, m.Scenario, m.Version)
	}
	if m.Scale <= 0 || m.Scale > 1 || m.Hours <= 0 {
		return nil, fmt.Errorf("%w: implausible run inputs scale=%v hours=%d", ErrManifestMismatch, m.Scale, m.Hours)
	}
	return m, nil
}
