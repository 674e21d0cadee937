// Package scenario is the registry of declarative workload scenarios: a
// bundled, versioned library embedded in the binary, loaders for external
// scenario files, and the run manifest that stamps every generated dataset
// with its exact provenance — scenario name and version, resolved seed and
// scale, canonical config hash, and the generator versions that rendered
// it. Given a manifest and this package, any dataset can be regenerated
// byte for byte.
package scenario

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"iotscope/internal/wgen"
)

// DefaultName is the scenario every unpinned run resolves: the bundled
// paper calibration, byte-identical to wgen.Default().
const DefaultName = "paper-default"

//go:embed scenarios/*.json
var bundled embed.FS

// Meta describes one bundled scenario.
type Meta struct {
	Name        string
	Version     int
	Description string
	Hours       int
	// Kinds are the actor kinds the scenario composes, in file order.
	Kinds []string
	// File is the bundled file name.
	File string
}

// Ref renders the pinned "name@version" reference.
func (m Meta) Ref() string { return fmt.Sprintf("%s@%d", m.Name, m.Version) }

// List enumerates the bundled scenario library, sorted by name then
// version. It panics only if the embedded bundle itself is broken, which
// TestBundledScenariosDecode pins at build time.
func List() []Meta {
	entries, err := bundled.ReadDir("scenarios")
	if err != nil {
		panic("scenario: broken bundle: " + err.Error())
	}
	out := make([]Meta, 0, len(entries))
	for _, e := range entries {
		cfg, err := loadBundledFile(e.Name())
		if err != nil {
			panic("scenario: broken bundled file " + e.Name() + ": " + err.Error())
		}
		m := Meta{
			Name:        cfg.Name,
			Version:     cfg.Version,
			Description: cfg.Description,
			Hours:       cfg.Hours,
			File:        e.Name(),
		}
		for _, a := range cfg.Actors {
			m.Kinds = append(m.Kinds, a.Kind)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

func loadBundledFile(name string) (*wgen.Config, error) {
	data, err := bundled.ReadFile("scenarios/" + name)
	if err != nil {
		return nil, err
	}
	return wgen.DecodeConfig(data)
}

// Load resolves a bundled scenario by "name" (highest version) or
// "name@version" and returns its decoded, validated config.
func Load(ref string) (*wgen.Config, error) {
	name, version, err := splitRef(ref)
	if err != nil {
		return nil, err
	}
	var (
		best     *wgen.Config
		bestVer  int
		anyName  bool
		allNames []string
	)
	for _, m := range List() {
		allNames = append(allNames, m.Ref())
		if m.Name != name {
			continue
		}
		anyName = true
		if version != 0 && m.Version != version {
			continue
		}
		if m.Version >= bestVer {
			cfg, err := loadBundledFile(m.File)
			if err != nil {
				return nil, err
			}
			best, bestVer = cfg, m.Version
		}
	}
	if best == nil {
		if anyName {
			return nil, fmt.Errorf("scenario: no bundled version %d of %q", version, name)
		}
		return nil, fmt.Errorf("scenario: no bundled scenario %q (have: %s)",
			name, strings.Join(allNames, ", "))
	}
	return best, nil
}

func splitRef(ref string) (name string, version int, err error) {
	name = ref
	if at := strings.LastIndexByte(ref, '@'); at >= 0 {
		name = ref[:at]
		version, err = strconv.Atoi(ref[at+1:])
		if err != nil || version < 1 {
			return "", 0, fmt.Errorf("scenario: bad version in ref %q", ref)
		}
	}
	if name == "" {
		return "", 0, fmt.Errorf("scenario: empty scenario name in ref %q", ref)
	}
	return name, version, nil
}

// LoadFile decodes and validates a scenario config from an external JSON
// file.
func LoadFile(path string) (*wgen.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := wgen.DecodeConfig(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return cfg, nil
}

// Options are the run-time inputs a config is resolved with. They are
// deliberately outside the config (and inside the run manifest): one
// scenario reproduces at any scale.
type Options struct {
	// Scale multiplies populations and aggregate volumes, in (0, 1].
	Scale float64
	// Seed drives every stochastic choice.
	Seed uint64
	// Hours overrides the config's capture window when positive.
	Hours int
}

// Resolved is a scenario ready to generate: the source config plus the
// concrete Scenario it resolves to at the chosen scale and seed.
type Resolved struct {
	// Source records where the config came from: "bundled:name@version"
	// or "file:<base name>". Deliberately machine-independent so datasets
	// generated from the same file anywhere carry identical manifests.
	Source string
	Config *wgen.Config
	// ConfigHash is the canonical hash of Config.
	ConfigHash string
	// Scenario is the runnable resolution of Config at Options.
	Scenario wgen.Scenario
}

// Resolve turns a scenario reference into a Resolved scenario. The
// reference is a bundled name ("paper-default", "mirai-wave@1") unless it
// looks like a path (contains a separator or a .json suffix), in which case
// the file is loaded.
func Resolve(ref string, opts Options) (*Resolved, error) {
	var (
		cfg    *wgen.Config
		source string
		err    error
	)
	if isFileRef(ref) {
		cfg, err = LoadFile(ref)
		source = "file:" + filepath.Base(ref)
	} else {
		cfg, err = Load(ref)
		if err == nil {
			source = fmt.Sprintf("bundled:%s@%d", cfg.Name, cfg.Version)
		}
	}
	if err != nil {
		return nil, err
	}
	return resolve(cfg, source, opts)
}

// ResolveConfig resolves an already decoded config (e.g. one constructed
// programmatically). Source is recorded as "config:<name>@<version>".
func ResolveConfig(cfg *wgen.Config, opts Options) (*Resolved, error) {
	return resolve(cfg, fmt.Sprintf("config:%s@%d", cfg.Name, cfg.Version), opts)
}

func resolve(cfg *wgen.Config, source string, opts Options) (*Resolved, error) {
	sc, err := cfg.Scenario(opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Hours > 0 {
		sc.Hours = opts.Hours
	}
	hash, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	return &Resolved{
		Source:     source,
		Config:     cfg,
		ConfigHash: hash,
		Scenario:   sc,
	}, nil
}

// Default resolves the bundled paper-default scenario — the library
// equivalent of wgen.Default(scale, seed), proven byte-identical to it by
// TestPaperDefaultMatchesWgenDefault.
func Default(scale float64, seed uint64) (*Resolved, error) {
	return Resolve(DefaultName, Options{Scale: scale, Seed: seed})
}

func isFileRef(ref string) bool {
	return strings.ContainsRune(ref, os.PathSeparator) || strings.ContainsRune(ref, '/') ||
		strings.HasSuffix(ref, ".json")
}
