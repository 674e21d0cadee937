// Package geo provides the synthetic Internet registry that substitutes for
// the geolocation and WHOIS metadata the paper obtains alongside Shodan
// records: a deterministic allocation of IPv4 prefixes to (country, ISP)
// pairs, from which the generator draws each device's address.
//
// The country set and the named ISPs mirror the ones appearing in the
// paper's tables (JSC ER-Telecom, Rostelecom, Korea Telecom, PT Telkom,
// PLDT, TOT, Turk Telekom, HiNet, ...); the remaining ISPs are synthetic.
// Prefixes are carved from the public IPv4 space minus the telescope's /8
// and reserved ranges, so no simulated device can ever sit inside the
// darknet.
package geo

import (
	"fmt"

	"iotscope/internal/netx"
	"iotscope/internal/rng"
)

// Country identifies one country in the registry.
type Country struct {
	Code string // ISO-3166-ish code; synthetic fillers use X00..X99 style
	Name string
}

// ISP is one operator within a country.
type ISP struct {
	Name    string
	Country string // country code
	ASN     uint32
}

// Config controls registry construction.
type Config struct {
	// DarkPrefix is excluded from all allocations (the telescope space).
	DarkPrefix netx.Prefix
	// FillerCountries adds synthetic countries beyond the named set so the
	// simulation can spread devices over the paper's "161 countries".
	FillerCountries int
	// ISPsPerCountryMin/Max bound how many operators each country gets
	// (named ISPs are always included for their countries).
	ISPsPerCountryMin int
	ISPsPerCountryMax int
	// PrefixBits is the size of each allocated block (default /16).
	PrefixBits int
	// PrefixesPerISP is how many blocks each operator receives.
	PrefixesPerISP int
}

// DefaultConfig returns the configuration used by the experiments: a
// 44.0.0.0/8 telescope, 130 filler countries (31 named + 130 ≈ the paper's
// 161), and /16 blocks.
func DefaultConfig() Config {
	return Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   130,
		ISPsPerCountryMin: 3,
		ISPsPerCountryMax: 9,
		PrefixBits:        16,
		PrefixesPerISP:    2,
	}
}

// namedCountries are the countries appearing in the paper's figures and
// tables, with codes used throughout the scenario configuration.
var namedCountries = []Country{
	{"US", "United States"},
	{"GB", "United Kingdom"},
	{"RU", "Russian Federation"},
	{"CN", "China"},
	{"KR", "Republic of Korea"},
	{"FR", "France"},
	{"IT", "Italy"},
	{"DE", "Germany"},
	{"CA", "Canada"},
	{"AU", "Australia"},
	{"VN", "Vietnam"},
	{"TW", "Taiwan"},
	{"BR", "Brazil"},
	{"ES", "Spain"},
	{"MX", "Mexico"},
	{"TH", "Thailand"},
	{"ID", "Indonesia"},
	{"SG", "Singapore"},
	{"TR", "Turkey"},
	{"UA", "Ukraine"},
	{"IN", "India"},
	{"PH", "Philippines"},
	{"NL", "Netherlands"},
	{"CH", "Switzerland"},
	{"AR", "Argentina"},
	{"JP", "Japan"},
	{"DO", "Dominican Republic"},
	{"ZA", "South Africa"},
	{"MY", "Malaysia"},
	{"PL", "Poland"},
	{"SE", "Sweden"},
}

// namedISPs places the paper's table ISPs in their countries. They are
// inserted first so scenario weights can reference them by name.
var namedISPs = map[string][]string{
	"RU": {"JSC ER-Telecom", "Rostelecom"},
	"ID": {"PT Telkom"},
	"KR": {"Korea Telecom"},
	"PH": {"PLDT"},
	"TH": {"TOT"},
	"TR": {"Turk Telekom"},
	"TW": {"HiNet"},
}

// Registry maps operators to address space.
type Registry struct {
	Countries []Country
	ISPs      []ISP

	ispPrefixes [][]netx.Prefix // per ISP
	byCountry   map[string][]int
}

// Build constructs a registry deterministically from seed.
func Build(cfg Config, seed uint64) (*Registry, error) {
	if cfg.PrefixBits < 8 || cfg.PrefixBits > 24 {
		return nil, fmt.Errorf("geo: prefix bits %d out of [8, 24]", cfg.PrefixBits)
	}
	if cfg.ISPsPerCountryMin < 1 || cfg.ISPsPerCountryMax < cfg.ISPsPerCountryMin {
		return nil, fmt.Errorf("geo: invalid ISPs-per-country range [%d, %d]",
			cfg.ISPsPerCountryMin, cfg.ISPsPerCountryMax)
	}
	if cfg.PrefixesPerISP < 1 {
		return nil, fmt.Errorf("geo: prefixes per ISP must be >= 1")
	}
	r := rng.New(seed).Derive("geo")

	reg := &Registry{
		Countries: append([]Country(nil), namedCountries...),
		byCountry: make(map[string][]int),
	}
	for i := 0; i < cfg.FillerCountries; i++ {
		code := fmt.Sprintf("X%02d", i)
		reg.Countries = append(reg.Countries, Country{Code: code, Name: "Synthetic " + code})
	}

	alloc, err := newAllocator(cfg.DarkPrefix, cfg.PrefixBits, r.Derive("alloc"))
	if err != nil {
		return nil, err
	}

	asn := uint32(64512) // start in the private-use range to signal synthesis
	for _, c := range reg.Countries {
		n := cfg.ISPsPerCountryMin
		if cfg.ISPsPerCountryMax > cfg.ISPsPerCountryMin {
			n += r.Intn(cfg.ISPsPerCountryMax - cfg.ISPsPerCountryMin + 1)
		}
		names := namedISPs[c.Code]
		if n < len(names) {
			n = len(names)
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s-Net-%d", c.Code, i+1)
			if i < len(names) {
				name = names[i]
			}
			idx := len(reg.ISPs)
			reg.ISPs = append(reg.ISPs, ISP{Name: name, Country: c.Code, ASN: asn})
			asn++
			prefixes := make([]netx.Prefix, 0, cfg.PrefixesPerISP)
			for j := 0; j < cfg.PrefixesPerISP; j++ {
				p, err := alloc.next()
				if err != nil {
					return nil, err
				}
				prefixes = append(prefixes, p)
			}
			reg.ispPrefixes = append(reg.ispPrefixes, prefixes)
			reg.byCountry[c.Code] = append(reg.byCountry[c.Code], idx)
		}
	}
	return reg, nil
}

// ISPsIn returns the ISP indices registered in a country.
func (g *Registry) ISPsIn(countryCode string) []int {
	return g.byCountry[countryCode]
}

// RandomAddr draws a uniform address from ISP i's space.
func (g *Registry) RandomAddr(r *rng.Source, i int) netx.Addr {
	prefixes := g.ispPrefixes[i]
	p := prefixes[r.Intn(len(prefixes))]
	return p.Nth(r.Uint64n(p.NumAddrs()))
}

// allocator hands out non-overlapping blocks from public space, skipping
// the darknet and reserved /8s, in a seed-shuffled order so adjacent ISPs
// do not get adjacent space.
type allocator struct {
	blocks []netx.Prefix
	cursor int
}

func newAllocator(dark netx.Prefix, bits int, r *rng.Source) (*allocator, error) {
	var blocks []netx.Prefix
	perSlash8 := 1 << uint(bits-8)
	for first := 1; first < 224; first++ {
		if first == 10 || first == 127 || first == 169 || first == 172 || first == 192 {
			continue // reserved-ish space, kept out for realism
		}
		slash8 := netx.NewPrefix(netx.Addr(uint32(first)<<24), 8)
		if slash8.Overlaps(dark) {
			continue
		}
		for i := 0; i < perSlash8; i++ {
			blocks = append(blocks, netx.NewPrefix(slash8.Nth(uint64(i)<<uint(32-bits)), bits))
		}
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("geo: no allocatable space outside %v", dark)
	}
	r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return &allocator{blocks: blocks}, nil
}

func (a *allocator) next() (netx.Prefix, error) {
	if a.cursor >= len(a.blocks) {
		return netx.Prefix{}, fmt.Errorf("geo: address space exhausted after %d blocks", a.cursor)
	}
	p := a.blocks[a.cursor]
	a.cursor++
	return p, nil
}
