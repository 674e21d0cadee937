package geo_test

import (
	"reflect"
	"testing"

	"iotscope/internal/abusecontact"
	"iotscope/internal/geo"
	"iotscope/internal/netx"
	"iotscope/internal/rng"
)

func buildTwice(t *testing.T, seed uint64) (*geo.Registry, *geo.Registry) {
	t.Helper()
	cfg := geo.Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   8,
		ISPsPerCountryMin: 2,
		ISPsPerCountryMax: 4,
		PrefixBits:        16,
		PrefixesPerISP:    2,
	}
	a, err := geo.Build(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := geo.Build(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// Same seed → identical ISP and prefix allocation across two independent
// builds, and identical derived abuse-contact resolution for every
// operator. The notification pipeline leans on this: a contact resolved at
// enqueue time must be the contact a restarted process would resolve.
func TestRegistryAndContactDeterminism(t *testing.T) {
	a, b := buildTwice(t, 99)
	if !reflect.DeepEqual(a.ISPs, b.ISPs) {
		t.Fatal("ISP allocation diverged across identical builds")
	}
	if !reflect.DeepEqual(a.Countries, b.Countries) {
		t.Fatal("country set diverged across identical builds")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("prefix allocation diverged across identical builds")
	}

	ra := abusecontact.NewResolver(abusecontact.Derive(a, 99))
	rb := abusecontact.NewResolver(abusecontact.Derive(b, 99))
	for i := range a.ISPs {
		ca, errA := ra.Resolve(i)
		cb, errB := rb.Resolve(i)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("ISP %d resolution outcome diverged: %v vs %v", i, errA, errB)
		}
		if ca != cb {
			t.Fatalf("ISP %d contact diverged: %+v vs %+v", i, ca, cb)
		}
	}

	// A different seed reallocates.
	c, err := geo.Build(geo.Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   8,
		ISPsPerCountryMin: 2,
		ISPsPerCountryMax: 4,
		PrefixBits:        16,
		PrefixesPerISP:    2,
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.ISPs) == len(a.ISPs)
	for i := 0; same && i < len(a.ISPs); i++ {
		same = a.RandomAddr(rng.New(uint64(i)), i) == c.RandomAddr(rng.New(uint64(i)), i)
	}
	if same {
		t.Fatal("different seed produced an identical allocation")
	}
}
