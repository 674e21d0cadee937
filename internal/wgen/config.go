package wgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
)

// ConfigFormat is the scenario-file format version this build reads and
// writes. Files carrying any other Format are rejected before field
// decoding so future formats can change shape freely.
const ConfigFormat = 1

// ErrBadScenario is wrapped by every scenario-config validation and decode
// failure, so callers can distinguish "the file is wrong" from I/O errors
// with a single errors.Is check.
var ErrBadScenario = errors.New("invalid scenario config")

// FieldError pins a validation failure to the config field that caused it,
// using a JSON-ish path like "Actors[2].Params.Services[0].Ports".
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return "wgen: " + e.Path + ": " + e.Msg }

// Unwrap makes every field error match ErrBadScenario.
func (e *FieldError) Unwrap() error { return ErrBadScenario }

// Population is the declarative form of the scenario's compromised-device
// population shape (Sec. III-B): who exists, who is compromised, and the
// activity envelope every actor draws from.
type Population struct {
	InventorySize            int     // full scale: 331,000
	CompromisedTotal         int     // full scale: 26,881
	ConsumerCompromisedShare float64 // 0.57
	ConsumerCountryShares    []Share // Sec. III-B1
	CPSCountryShares         []Share // Sec. III-B2
	ConsumerTypeShares       []devicedb.TypeWeight
	// Day1Fraction of devices first appear during day one (Fig. 2).
	Day1Fraction float64
	// DayActiveProb and mean hourly duty drive the ~10.9 K daily actives.
	DayActiveProb float64
	HourDutyMin   float64
	HourDutyMax   float64
	// RateSpreadSigma is the per-device log-normal rate multiplier spread
	// producing the Figs. 6/11 heavy-tailed per-device totals.
	RateSpreadSigma float64
}

// Config is one declarative, versioned scenario: a population plus a list
// of composable actor blocks, each handled by a registered generator kind.
// It deliberately excludes the run-time inputs (scale, seed): those are
// supplied at resolve time and recorded in the run manifest, so one config
// reproduces at any scale.
type Config struct {
	// Format is the file-format version (must equal ConfigFormat).
	Format int
	// Name identifies the scenario; Version is bumped on any semantic
	// change so runs can pin "name@version".
	Name    string
	Version int
	// Description is free-form documentation.
	Description string
	// Hours is the capture-window length.
	Hours int
	// Telescope overrides the registry/darknet geometry; nil means the
	// paper's 44.0.0.0/8 default.
	Telescope  *geo.Config
	Population Population
	// Actors composes the workload out of registered generator kinds.
	Actors []ActorBlock
}

// ActorBlock pairs a registered generator kind with its parameters.
type ActorBlock struct {
	Kind   string
	Params Block
}

// MarshalJSON encodes the block as {"Kind": ..., "Params": {...}}.
func (b ActorBlock) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Kind   string
		Params Block
	}{b.Kind, b.Params})
}

// UnmarshalJSON decodes the kind name and defers parameter decoding to the
// registered kind's parameter type, rejecting unknown fields.
func (b *ActorBlock) UnmarshalJSON(data []byte) error {
	var wire struct {
		Kind   string
		Params json.RawMessage
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return err
	}
	row := kindRow(wire.Kind)
	if row < 0 {
		return &FieldError{Path: "Kind", Msg: fmt.Sprintf("unknown actor kind %q", wire.Kind)}
	}
	block := kinds[row].block()
	if len(wire.Params) > 0 && !bytes.Equal(wire.Params, []byte("null")) {
		pdec := json.NewDecoder(bytes.NewReader(wire.Params))
		pdec.DisallowUnknownFields()
		if err := pdec.Decode(block); err != nil {
			return fmt.Errorf("Params: %w", err)
		}
	}
	b.Kind = wire.Kind
	b.Params = block
	return nil
}

// DecodeConfig parses and validates a JSON scenario config; any failure
// wraps ErrBadScenario.
func DecodeConfig(data []byte) (*Config, error) {
	// Probe the format version first: a future-format file must fail with
	// "unsupported format", not an unknown-field complaint about a field
	// this build has never heard of.
	var probe struct{ Format int }
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if probe.Format != ConfigFormat {
		return nil, &FieldError{Path: "Format",
			Msg: fmt.Sprintf("unsupported scenario format %d (this build reads format %d)", probe.Format, ConfigFormat)}
	}
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	// Reject trailing garbage after the top-level object.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after config object", ErrBadScenario)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// CanonicalJSON renders the config in its canonical on-disk form: indented
// JSON with the struct's fixed key order and a trailing newline. Decoding a
// config and re-encoding it canonically is a normalization: key order and
// whitespace wash out.
func (c *Config) CanonicalJSON() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// configHashDomain separates scenario-config hashes from any other SHA-256
// use in the system.
const configHashDomain = "iotscope-scenario-config/v1\n"

// Hash returns the canonical config hash ("sha256:<hex>"): SHA-256 over a
// domain prefix plus the compact canonical encoding. Two files with the
// same semantic content hash identically regardless of key order and
// layout; any semantic field change produces a new hash.
func (c *Config) Hash() (string, error) {
	compact, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(configHashDomain))
	h.Write(compact)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// badConfig collects field-path validation failures.
type badConfig struct{ errs []error }

func (b *badConfig) addf(path, format string, args ...any) {
	b.errs = append(b.errs, &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)})
}

func (b *badConfig) err() error {
	if len(b.errs) == 0 {
		return nil
	}
	return errors.Join(b.errs...)
}

// Validate checks the config's schema, reporting every violation with its
// field path. All failures wrap ErrBadScenario.
func (c *Config) Validate() error {
	var bad badConfig
	if c.Format != ConfigFormat {
		bad.addf("Format", "unsupported scenario format %d (this build reads format %d)", c.Format, ConfigFormat)
	}
	if c.Name == "" {
		bad.addf("Name", "empty")
	} else if !validScenarioName(c.Name) {
		bad.addf("Name", "%q must be lowercase letters, digits, and dashes", c.Name)
	}
	if c.Version < 1 {
		bad.addf("Version", "%d must be >= 1", c.Version)
	}
	positive("Hours", c.Hours, &bad)
	if t := c.Telescope; t != nil {
		if t.DarkPrefix.Bits() < 1 || t.DarkPrefix.Bits() > 30 {
			bad.addf("Telescope.DarkPrefix", "%s is not a usable telescope prefix", t.DarkPrefix)
		}
		if t.ISPsPerCountryMin < 1 || t.ISPsPerCountryMax < t.ISPsPerCountryMin {
			bad.addf("Telescope.ISPsPerCountryMin", "bad ISP bounds [%d, %d]", t.ISPsPerCountryMin, t.ISPsPerCountryMax)
		}
		if t.PrefixBits < 8 || t.PrefixBits > 24 {
			bad.addf("Telescope.PrefixBits", "%d outside [8, 24]", t.PrefixBits)
		}
		positive("Telescope.PrefixesPerISP", t.PrefixesPerISP, &bad)
		nonNegative("Telescope.FillerCountries", t.FillerCountries, &bad)
	}
	c.Population.validate("Population", &bad)
	seen := make(map[string]int, len(c.Actors))
	for i, a := range c.Actors {
		path := fmt.Sprintf("Actors[%d]", i)
		if a.Params == nil {
			bad.addf(path+".Kind", "unknown or missing actor kind %q", a.Kind)
			continue
		}
		if a.Kind != a.Params.Kind() {
			bad.addf(path+".Kind", "%q does not match block kind %q", a.Kind, a.Params.Kind())
		}
		if prev, dup := seen[a.Kind]; dup {
			bad.addf(path+".Kind", "duplicate actor kind %q (first at Actors[%d])", a.Kind, prev)
		}
		seen[a.Kind] = i
		a.Params.validate(path+".Params", &bad)
	}
	return bad.err()
}

func (p *Population) validate(path string, bad *badConfig) {
	positive(path+".InventorySize", p.InventorySize, bad)
	positive(path+".CompromisedTotal", p.CompromisedTotal, bad)
	fraction(path+".ConsumerCompromisedShare", p.ConsumerCompromisedShare, bad)
	validateShares(path+".ConsumerCountryShares", p.ConsumerCountryShares, bad)
	validateShares(path+".CPSCountryShares", p.CPSCountryShares, bad)
	typeTotal := 0.0
	for i, tw := range p.ConsumerTypeShares {
		nonNegative(fmt.Sprintf("%s.ConsumerTypeShares[%d].Weight", path, i), tw.Weight, bad)
		typeTotal += tw.Weight
	}
	if p.ConsumerCompromisedShare > 0 && typeTotal <= 0 {
		bad.addf(path+".ConsumerTypeShares", "no positive type weights for a consumer population")
	}
	fraction(path+".Day1Fraction", p.Day1Fraction, bad)
	if p.DayActiveProb <= 0 || p.DayActiveProb > 1 {
		bad.addf(path+".DayActiveProb", "%v outside (0, 1]", p.DayActiveProb)
	}
	if p.HourDutyMin <= 0 || p.HourDutyMin > 1 {
		bad.addf(path+".HourDutyMin", "%v outside (0, 1]", p.HourDutyMin)
	}
	if p.HourDutyMax < p.HourDutyMin || p.HourDutyMax > 1 {
		bad.addf(path+".HourDutyMax", "%v outside [HourDutyMin, 1]", p.HourDutyMax)
	}
	nonNegative(path+".RateSpreadSigma", p.RateSpreadSigma, bad)
}

func validateShares(path string, shares []Share, bad *badConfig) {
	total := 0.0
	for i, s := range shares {
		if s.Code == "" {
			bad.addf(fmt.Sprintf("%s[%d].Code", path, i), "empty country code")
		}
		nonNegative(fmt.Sprintf("%s[%d].Share", path, i), s.Share, bad)
		total += s.Share
	}
	if total > 100.0001 {
		bad.addf(path, "shares sum to %.4g%% (> 100%%)", total)
	}
}

// positive rejects v <= 0.
func positive[T int | float64](path string, v T, bad *badConfig) {
	if v <= 0 {
		bad.addf(path, "%v must be positive", v)
	}
}

// nonNegative rejects v < 0.
func nonNegative[T int | float64](path string, v T, bad *badConfig) {
	if v < 0 {
		bad.addf(path, "%v must be non-negative", v)
	}
}

// fraction rejects v outside [0, 1].
func fraction(path string, v float64, bad *badConfig) {
	if v < 0 || v > 1 {
		bad.addf(path, "%v outside [0, 1]", v)
	}
}

// validatePorts rejects an empty port list and port 0.
func validatePorts(path string, ports []uint16, bad *badConfig) {
	if len(ports) == 0 {
		bad.addf(path, "empty")
	}
	for i, p := range ports {
		if p == 0 {
			bad.addf(fmt.Sprintf("%s[%d]", path, i), "port 0")
		}
	}
}

// validateHours rejects a negative event hour.
func validateHours(path string, hours []int, bad *badConfig) {
	for i, h := range hours {
		if h < 0 {
			bad.addf(fmt.Sprintf("%s[%d]", path, i), "negative hour %d", h)
		}
	}
}

// validateServices checks a share-weighted service list: named, nonzero
// ports, positive shares summing to 100 %.
func validateServices(path string, services []ServiceShare, bad *badConfig) {
	if len(services) == 0 {
		bad.addf(path, "empty")
	}
	total := 0.0
	for i, s := range services {
		p := fmt.Sprintf("%s[%d]", path, i)
		if s.Name == "" {
			bad.addf(p+".Name", "empty")
		}
		if s.Port == 0 {
			bad.addf(p+".Port", "port 0")
		}
		positive(p+".Share", s.Share, bad)
		total += s.Share
	}
	if len(services) > 0 && (total < 99.999 || total > 100.001) {
		bad.addf(path, "shares sum to %.4g%% (must be 100%%)", total)
	}
}

func validScenarioName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-' && i > 0 && i < len(name)-1:
		default:
			return false
		}
	}
	return true
}

// Scenario resolves the declarative config into a runnable Scenario at the
// given scale and seed: defaults are filled, then each actor block applies
// its parameters. The config is validated first.
func (c *Config) Scenario(scale float64, seed uint64) (Scenario, error) {
	if err := c.Validate(); err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Seed:       seed,
		Hours:      c.Hours,
		Scale:      scale,
		Geo:        geo.DefaultConfig(),
		Population: c.Population,
	}
	if c.Telescope != nil {
		sc.Geo = *c.Telescope
	}
	for _, a := range c.Actors {
		a.Params.apply(&sc)
	}
	return sc, nil
}
