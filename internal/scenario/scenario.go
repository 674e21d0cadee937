// Package scenario is the registry of declarative workload scenarios: a
// bundled, versioned library defined in Go (library.go), loaders for
// external scenario files, and the run manifest that stamps every generated
// dataset with its exact provenance — scenario name and version, resolved
// seed and scale, canonical config hash, and the generator versions that
// rendered it. Given a manifest and this package, any dataset can be
// regenerated byte for byte.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"iotscope/internal/wgen"
)

// DefaultName is the scenario every unpinned run resolves: the bundled
// paper calibration, wgen.PaperDefault().
const DefaultName = "paper-default"

// Meta describes one bundled scenario.
type Meta struct {
	Name        string
	Version     int
	Description string
	Hours       int
	// Kinds are the actor kinds the scenario composes, in block order.
	Kinds []string
}

// Ref renders the pinned "name@version" reference.
func (m Meta) Ref() string { return fmt.Sprintf("%s@%d", m.Name, m.Version) }

// List enumerates the bundled scenario library, sorted by name then
// version.
func List() []Meta {
	out := make([]Meta, 0, len(library))
	for _, def := range library {
		cfg := def()
		m := Meta{
			Name:        cfg.Name,
			Version:     cfg.Version,
			Description: cfg.Description,
			Hours:       cfg.Hours,
		}
		for _, a := range cfg.Actors {
			m.Kinds = append(m.Kinds, a.Kind)
		}
		out = append(out, m)
	}
	return out
}

// Load resolves a bundled scenario by "name" (highest version) or
// "name@version" and returns a fresh config the caller owns: no two calls
// share a pointer or a slice.
func Load(ref string) (*wgen.Config, error) {
	name, version, err := splitRef(ref)
	if err != nil {
		return nil, err
	}
	var (
		best    *wgen.Config
		anyName bool
	)
	for _, def := range library {
		cfg := def()
		if cfg.Name != name {
			continue
		}
		anyName = true
		if (version == 0 || cfg.Version == version) && (best == nil || cfg.Version > best.Version) {
			best = cfg
		}
	}
	if best != nil {
		return best, nil
	}
	if anyName {
		return nil, fmt.Errorf("scenario: no bundled version %d of %q", version, name)
	}
	var refs []string
	for _, m := range List() {
		refs = append(refs, m.Ref())
	}
	return nil, fmt.Errorf("scenario: no bundled scenario %q (have: %s)", name, strings.Join(refs, ", "))
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

func isFileRef(ref string) bool {
	return strings.ContainsRune(ref, os.PathSeparator) || strings.ContainsRune(ref, '/') ||
		strings.HasSuffix(ref, ".json")
}
