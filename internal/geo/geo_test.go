package geo

import (
	"slices"
	"sort"
	"testing"

	"iotscope/internal/netx"
	"iotscope/internal/rng"
)

func build(t *testing.T, seed uint64) *Registry {
	t.Helper()
	g, err := Build(DefaultConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildDeterministic(t *testing.T) {
	a := build(t, 42)
	b := build(t, 42)
	if len(a.ISPs) != len(b.ISPs) {
		t.Fatalf("ISP counts differ: %d vs %d", len(a.ISPs), len(b.ISPs))
	}
	for i := range a.ISPs {
		if a.ISPs[i] != b.ISPs[i] {
			t.Fatalf("ISP %d differs: %+v vs %+v", i, a.ISPs[i], b.ISPs[i])
		}
		ap, bp := a.ispPrefixes[i], b.ispPrefixes[i]
		for j := range ap {
			if ap[j] != bp[j] {
				t.Fatalf("prefix %d/%d differs", i, j)
			}
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	a := build(t, 1)
	b := build(t, 2)
	same := 0
	n := len(a.ISPs)
	if len(b.ISPs) < n {
		n = len(b.ISPs)
	}
	for i := 0; i < n; i++ {
		if len(a.ispPrefixes[i]) > 0 && len(b.ispPrefixes[i]) > 0 && a.ispPrefixes[i][0] == b.ispPrefixes[i][0] {
			same++
		}
	}
	if same > n/10 {
		t.Fatalf("%d/%d first prefixes identical across seeds", same, n)
	}
}

func TestNamedISPsPresent(t *testing.T) {
	g := build(t, 7)
	for country, names := range namedISPs {
		for _, name := range names {
			found := false
			for _, isp := range g.ISPs {
				if isp.Name == name {
					found = true
					if isp.Country != country {
						t.Errorf("ISP %q in country %q, want %q", name, isp.Country, country)
					}
					break
				}
			}
			if !found {
				t.Errorf("named ISP %q missing", name)
			}
		}
	}
}

func TestCountryCount(t *testing.T) {
	g := build(t, 7)
	want := len(namedCountries) + DefaultConfig().FillerCountries
	if len(g.Countries) != want {
		t.Fatalf("countries %d want %d", len(g.Countries), want)
	}
}

func TestDarknetExcluded(t *testing.T) {
	g := build(t, 13)
	dark := DefaultConfig().DarkPrefix
	for i := range g.ISPs {
		for _, p := range g.ispPrefixes[i] {
			if p.Overlaps(dark) {
				t.Fatalf("ISP %d prefix %v overlaps darknet %v", i, p, dark)
			}
		}
	}
}

func TestPrefixesDisjoint(t *testing.T) {
	g := build(t, 17)
	seen := make(map[netx.Prefix]int)
	for i := range g.ISPs {
		for _, p := range g.ispPrefixes[i] {
			if prev, dup := seen[p]; dup {
				t.Fatalf("prefix %v allocated to ISPs %d and %d", p, prev, i)
			}
			seen[p] = i
		}
	}
}

func TestISPsIn(t *testing.T) {
	g := build(t, 19)
	for _, code := range []string{"US", "RU", "CN"} {
		isps := g.ISPsIn(code)
		if len(isps) < DefaultConfig().ISPsPerCountryMin {
			t.Errorf("country %s has %d ISPs", code, len(isps))
		}
		for _, i := range isps {
			if g.ISPs[i].Country != code {
				t.Errorf("ISPsIn(%s) returned ISP of %s", code, g.ISPs[i].Country)
			}
		}
	}
	if got := g.ISPsIn("ZZ"); got != nil {
		t.Errorf("unknown country returned %v", got)
	}
}

func TestBuildValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.PrefixBits = 30
	if _, err := Build(bad, 1); err == nil {
		t.Error("prefix bits 30 accepted")
	}
	bad = DefaultConfig()
	bad.ISPsPerCountryMin = 0
	if _, err := Build(bad, 1); err == nil {
		t.Error("min 0 accepted")
	}
	bad = DefaultConfig()
	bad.PrefixesPerISP = 0
	if _, err := Build(bad, 1); err == nil {
		t.Error("0 prefixes per ISP accepted")
	}
}

func TestASNsUnique(t *testing.T) {
	g := build(t, 29)
	seen := make(map[uint32]bool)
	for _, isp := range g.ISPs {
		if seen[isp.ASN] {
			t.Fatalf("duplicate ASN %d", isp.ASN)
		}
		seen[isp.ASN] = true
	}
}

// allocationCase is one registry the allocation tests build: the default
// config and the two small ones the determinism tests use.
type allocationCase struct {
	cfg  Config
	seed uint64
}

func smallConfig(filler, lo, hi int) Config {
	return Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   filler,
		ISPsPerCountryMin: lo,
		ISPsPerCountryMax: hi,
		PrefixBits:        16,
		PrefixesPerISP:    2,
	}
}

var allocationCases = []allocationCase{
	{DefaultConfig(), 11},
	{smallConfig(8, 2, 4), 31},
	{smallConfig(4, 1, 3), 7},
}

// owned is one allocated block and the ISP holding it.
type owned struct {
	block netx.Prefix
	isp   int
}

// owners resolves an address to the block that holds it, by binary search
// over every allocated block sorted by first address. The registry draws
// addresses but resolves none, so the tests keep this index themselves;
// building it fails the test if two blocks overlap.
type owners []owned

func ownersOf(t testing.TB, g *Registry) owners {
	t.Helper()
	var o owners
	for i, ps := range g.ispPrefixes {
		for _, p := range ps {
			o = append(o, owned{p, i})
		}
	}
	sort.Slice(o, func(i, j int) bool { return o[i].block.Nth(0) < o[j].block.Nth(0) })
	for i := 1; i < len(o); i++ {
		if o[i-1].block.Overlaps(o[i].block) {
			t.Fatalf("blocks %v (ISP %d) and %v (ISP %d) overlap",
				o[i-1].block, o[i-1].isp, o[i].block, o[i].isp)
		}
	}
	return o
}

func (o owners) lookup(a netx.Addr) (owned, bool) {
	k := sort.Search(len(o), func(j int) bool { return o[j].block.Nth(0) > a }) - 1
	if k < 0 || !o[k].block.Contains(a) {
		return owned{}, false
	}
	return o[k], true
}

// Every ISP is listed under a country the registry holds, RandomAddr(i)
// lands in ISP i's blocks, and the dark prefix belongs to no operator.
func TestLookupConsistency(t *testing.T) {
	for _, tc := range allocationCases {
		g, err := Build(tc.cfg, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		o := ownersOf(t, g)
		countries := map[string]bool{}
		for _, c := range g.Countries {
			countries[c.Code] = true
		}
		r := rng.New(5)
		for i, isp := range g.ISPs {
			if !countries[isp.Country] || !slices.Contains(g.ISPsIn(isp.Country), i) {
				t.Fatalf("ISP %d (%s) is not listed under its country %q", i, isp.Name, isp.Country)
			}
			for trial := 0; trial < 20; trial++ {
				a := g.RandomAddr(r, i)
				if got, ok := o.lookup(a); !ok || got.isp != i {
					t.Fatalf("RandomAddr(%d) = %v resolves to %+v (ok=%v), want ISP %d", i, a, got, ok, i)
				}
			}
		}
		for _, a := range []netx.Addr{tc.cfg.DarkPrefix.Nth(0), netx.MustParseAddr("44.1.2.3")} {
			if got, ok := o.lookup(a); ok {
				t.Fatalf("dark address %v resolves to %+v", a, got)
			}
		}
	}
}

// Blocks are aligned, PrefixBits-sized and clear of the dark prefix and
// every skipped /8; the first and last address of each block resolve to it,
// and the addresses one step outside resolve to another block or to none.
func TestLookupPrefixBoundaries(t *testing.T) {
	for _, tc := range allocationCases {
		g, err := Build(tc.cfg, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		o := ownersOf(t, g)
		size := uint64(1) << uint(32-tc.cfg.PrefixBits)
		for _, b := range o {
			p := b.block
			if p.Overlaps(tc.cfg.DarkPrefix) {
				t.Fatalf("ISP %d block %v overlaps the dark prefix", b.isp, p)
			}
			switch first := uint32(p.Nth(0)) >> 24; {
			case first == 0 || first >= 224, first == 10, first == 127, first == 169, first == 172, first == 192:
				t.Fatalf("ISP %d block %v lies in a skipped /8", b.isp, p)
			}
			first, last := p.Nth(0), p.Nth(p.NumAddrs()-1)
			if p.NumAddrs() != size || uint64(first)%size != 0 {
				t.Fatalf("ISP %d block %v is not an aligned /%d", b.isp, p, tc.cfg.PrefixBits)
			}
			for _, a := range []netx.Addr{first, last} {
				if got, ok := o.lookup(a); !ok || got != b {
					t.Fatalf("addr %v inside %v resolves to %+v (ok=%v), want ISP %d", a, p, got, ok, b.isp)
				}
			}
			if before := first - 1; before < first {
				if got, ok := o.lookup(before); ok && got.block == p {
					t.Fatalf("addr %v before %v resolves into it", before, p)
				}
			}
			if after := last + 1; after > last {
				if got, ok := o.lookup(after); ok && got.block == p {
					t.Fatalf("addr %v after %v resolves into it", after, p)
				}
			}
		}
	}
}

// FuzzLookup drives arbitrary addresses through two identically seeded
// registries: at most one block holds an address, both builds agree on it,
// the binary-search index finds the same block a full scan does, and the
// dark prefix holds nothing.
func FuzzLookup(f *testing.F) {
	cfg := smallConfig(4, 1, 3)
	a, err := Build(cfg, 7)
	if err != nil {
		f.Fatal(err)
	}
	b, err := Build(cfg, 7)
	if err != nil {
		f.Fatal(err)
	}
	oa, ob := ownersOf(f, a), ownersOf(f, b)
	// Seed with block boundaries, the off-by-one surface of the search.
	for i := 0; i < len(a.ISPs) && i < 4; i++ {
		for _, p := range a.ispPrefixes[i] {
			f.Add(uint32(p.Nth(0)))
			f.Add(uint32(p.Nth(p.NumAddrs() - 1)))
			f.Add(uint32(p.Nth(0)) - 1)
			f.Add(uint32(p.Nth(p.NumAddrs()-1)) + 1)
		}
	}
	f.Add(uint32(0))
	f.Add(uint32(0x2c000001)) // inside the 44/8 darknet

	f.Fuzz(func(t *testing.T, raw uint32) {
		addr := netx.Addr(raw)
		gotA, okA := oa.lookup(addr)
		gotB, okB := ob.lookup(addr)
		if okA != okB || gotA != gotB {
			t.Fatalf("lookup %v diverged across identical builds: %+v vs %+v", addr, gotA, gotB)
		}
		var scan []owned
		for i, ps := range a.ispPrefixes {
			for _, p := range ps {
				if p.Contains(addr) {
					scan = append(scan, owned{p, i})
				}
			}
		}
		switch {
		case len(scan) > 1:
			t.Fatalf("addr %v lies in %d blocks: %+v", addr, len(scan), scan)
		case len(scan) == 1 && (!okA || gotA != scan[0]):
			t.Fatalf("lookup %v = %+v (ok=%v), scan finds %+v", addr, gotA, okA, scan[0])
		case len(scan) == 0 && okA:
			t.Fatalf("lookup %v = %+v, but no block holds it", addr, gotA)
		}
		if okA && cfg.DarkPrefix.Contains(addr) {
			t.Fatalf("dark address %v resolved to ISP %d", addr, gotA.isp)
		}
	})
}
