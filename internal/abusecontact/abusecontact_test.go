package abusecontact

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"iotscope/internal/geo"
	"iotscope/internal/netx"
)

func smallGeo(t *testing.T, seed uint64) *geo.Registry {
	t.Helper()
	cfg := geo.Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   6,
		ISPsPerCountryMin: 2,
		ISPsPerCountryMax: 5,
		PrefixBits:        16,
		PrefixesPerISP:    2,
	}
	g, err := geo.Build(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The registry is a pure function of (geo registry, seed): two independent
// derivations agree contact for contact, and a different seed moves the
// coverage holes.
func TestDeriveDeterminism(t *testing.T) {
	g1, g2 := smallGeo(t, 42), smallGeo(t, 42)
	a, b := Derive(g1, 42), Derive(g2, 42)
	if !reflect.DeepEqual(a.primary, b.primary) {
		t.Fatal("primary registry diverged across identical derivations")
	}
	if !reflect.DeepEqual(a.byASN, b.byASN) {
		t.Fatal("ASN registry diverged across identical derivations")
	}
	if !reflect.DeepEqual(a.catchal, b.catchal) {
		t.Fatal("country catch-all diverged across identical derivations")
	}

	c := Derive(g1, 43)
	if reflect.DeepEqual(a.primary, c.primary) && reflect.DeepEqual(a.byASN, c.byASN) {
		t.Fatal("different seed produced an identical registry")
	}
}

// Coverage is patchy by design — some operators lack a primary mailbox —
// but the country catch-all is complete, so every operator resolves when no
// tier is failed.
func TestCoverageShape(t *testing.T) {
	g := smallGeo(t, 7)
	reg := Derive(g, 7)
	if len(reg.primary) == len(reg.isps) {
		t.Fatal("no coverage holes: fallback tiers untestable")
	}
	if len(reg.primary) == 0 {
		t.Fatal("empty primary registry")
	}
	r := NewResolver(reg)
	for i := 0; i < len(reg.isps); i++ {
		c, err := r.Resolve(i)
		if err != nil {
			t.Fatalf("ISP %d unresolved with healthy chain: %v", i, err)
		}
		if c.Email == "" || !strings.Contains(c.Email, "@") {
			t.Fatalf("ISP %d resolved to malformed mailbox %q", i, c.Email)
		}
		if c.ASN != g.ISPs[i].ASN || c.Country != g.ISPs[i].Country {
			t.Fatalf("ISP %d contact metadata mismatch: %+v", i, c)
		}
	}
	st := r.Stats()
	if st.Unresolved != 0 {
		t.Fatalf("healthy chain recorded %d unresolved", st.Unresolved)
	}
	if st.Registry.Resolved != len(reg.primary) {
		t.Fatalf("registry tier resolved %d, coverage is %d",
			st.Registry.Resolved, len(reg.primary))
	}
	if st.ASN.Resolved+st.Country.Resolved != len(reg.isps)-len(reg.primary) {
		t.Fatalf("fallback tiers resolved %d+%d, want %d",
			st.ASN.Resolved, st.Country.Resolved, len(reg.isps)-len(reg.primary))
	}
}

// Failing tiers degrades the chain one level at a time; failing all three
// leaves a retryable ErrUnresolved.
func TestFallbackChainDegradation(t *testing.T) {
	g := smallGeo(t, 11)
	reg := Derive(g, 11)
	boom := errors.New("backend down")

	r := NewResolver(reg)
	r.FailTier(TierRegistry, boom)
	c, err := r.Resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tier == TierRegistry {
		t.Fatal("failed registry tier still resolved")
	}

	r.FailTier(TierASN, boom)
	c, err = r.Resolve(0)
	if err != nil || c.Tier != TierCountry {
		t.Fatalf("want country catch-all, got tier %v err %v", c.Tier, err)
	}

	r.FailTier(TierCountry, boom)
	_, err = r.Resolve(0)
	if !errors.Is(err, ErrUnresolved) {
		t.Fatalf("fully failed chain returned %v", err)
	}
	if !isRetryable(err) {
		t.Fatal("tier failures should make the resolution retryable")
	}
	st := r.Stats()
	if st.Unresolved != 1 || st.Registry.Failures != 3 || st.Country.Failures != 1 {
		t.Fatalf("degradation stats off: %+v", st)
	}

	// Clearing the faults restores resolution.
	for tier := TierRegistry; tier < numTiers; tier++ {
		r.FailTier(tier, nil)
	}
	if _, err := r.Resolve(0); err != nil {
		t.Fatalf("cleared faults, still failing: %v", err)
	}
}

// A clean miss on every tier (no injected errors) must NOT be retryable —
// waiting will not create a record. Build the case by resolving against a
// country code absent from the catch-all via an out-of-range index guard
// and a doctored registry.
func TestUnresolvedMissIsPermanent(t *testing.T) {
	g := smallGeo(t, 13)
	reg := Derive(g, 13)
	// Doctor a registry with no record of operator 0 at any tier.
	delete(reg.primary, 0)
	delete(reg.byASN, reg.isps[0].ASN)
	delete(reg.catchal, reg.isps[0].Country)
	r := NewResolver(reg)
	_, err := r.Resolve(0)
	if !errors.Is(err, ErrUnresolved) {
		t.Fatalf("want ErrUnresolved, got %v", err)
	}
	if isRetryable(err) {
		t.Fatal("clean misses must be permanent")
	}

	if _, err := r.Resolve(-1); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("want ErrUnknownISP, got %v", err)
	}
	if _, err := r.Resolve(len(reg.isps)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("want ErrUnknownISP, got %v", err)
	}
}

// The resolver is shared by parallel pipeline stages; hammer it from many
// goroutines under the race detector.
func TestResolverConcurrency(t *testing.T) {
	g := smallGeo(t, 17)
	r := NewResolver(Derive(g, 17))
	n := len(r.reg.isps)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if w == 0 && i%50 == 0 {
					r.FailTier(TierRegistry, errors.New("flap"))
					r.FailTier(TierRegistry, nil)
				}
				_, _ = r.Resolve((w*97 + i) % n)
			}
		}(w)
	}
	wg.Wait()
	st := r.Stats()
	if st.Registry.Queries == 0 {
		t.Fatal("no queries recorded")
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"JSC ER-Telecom": "jsc-er-telecom",
		"Korea Telecom":  "korea-telecom",
		"X00-Net-3":      "x00-net-3",
		"  odd--name  ":  "odd-name",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzResolve: arbitrary operator indices and fault masks never panic, and
// every outcome is either a well-formed contact or an error inside the
// package taxonomy with consistent stats.
func FuzzResolve(f *testing.F) {
	f.Add(0, uint8(0))
	f.Add(3, uint8(1))
	f.Add(-1, uint8(7))
	f.Add(1<<20, uint8(5))
	g, err := geo.Build(geo.Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   2,
		ISPsPerCountryMin: 1,
		ISPsPerCountryMax: 3,
		PrefixBits:        16,
		PrefixesPerISP:    1,
	}, 23)
	if err != nil {
		f.Fatal(err)
	}
	reg := Derive(g, 23)
	f.Fuzz(func(t *testing.T, isp int, faults uint8) {
		r := NewResolver(reg)
		for tier := TierRegistry; tier < numTiers; tier++ {
			if faults&(1<<uint(tier)) != 0 {
				r.FailTier(tier, fmt.Errorf("injected %v", tier))
			}
		}
		c, err := r.Resolve(isp)
		if err != nil {
			if !errors.Is(err, ErrUnknownISP) && !errors.Is(err, ErrUnresolved) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			return
		}
		if !strings.Contains(c.Email, "@") || c.Source != c.Tier.String() {
			t.Fatalf("malformed contact %+v", c)
		}
		if faults&(1<<uint(c.Tier)) != 0 {
			t.Fatalf("contact resolved by a failed tier: %+v", c)
		}
	})
}
