package netx

import (
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.1", 0xc0000201, true},
		{"10.0.0.1", 0x0a000001, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"-1.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
	}
	for _, tc := range tests {
		got, err := ParseAddr(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseAddr(%q) err = %v, ok want %v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseAddr(%q) = %v want %v", tc.in, uint32(got), uint32(tc.want))
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseAddr("nope")
}

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		in   string
		want string
		ok   bool
	}{
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.2.3/8", "10.0.0.0/8", true}, // host bits zeroed
		{"192.0.2.1/32", "192.0.2.1/32", true},
		{"0.0.0.0/0", "0.0.0.0/0", true},
		{"10.0.0.0/33", "", false},
		{"10.0.0.0/-1", "", false},
		{"10.0.0.0", "", false},
		{"bad/8", "", false},
	}
	for _, tc := range tests {
		got, err := ParsePrefix(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParsePrefix(%q) err = %v", tc.in, err)
			continue
		}
		if tc.ok && got.String() != tc.want {
			t.Errorf("ParsePrefix(%q) = %v want %v", tc.in, got, tc.want)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.1.2")) {
		t.Error("10/8 should contain 10.255.1.2")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(0) || !all.Contains(0xffffffff) {
		t.Error("/0 must contain everything")
	}
	host := MustParsePrefix("192.0.2.7/32")
	if !host.Contains(MustParseAddr("192.0.2.7")) || host.Contains(MustParseAddr("192.0.2.8")) {
		t.Error("/32 containment wrong")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.1.0.0/16", "10.0.0.0/8", true},
		{"10.0.0.0/8", "11.0.0.0/8", false},
		{"0.0.0.0/0", "203.0.113.0/24", true},
		{"192.0.2.0/24", "192.0.2.128/25", true},
		{"192.0.2.0/25", "192.0.2.128/25", false},
	}
	for _, tc := range tests {
		a, b := MustParsePrefix(tc.a), MustParsePrefix(tc.b)
		if got := a.Overlaps(b); got != tc.want {
			t.Errorf("%s overlaps %s = %v want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPrefixNumAddrsAndNth(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.NumAddrs() != 256 {
		t.Fatalf("NumAddrs = %d", p.NumAddrs())
	}
	if got := p.Nth(0); got != MustParseAddr("192.0.2.0") {
		t.Errorf("Nth(0) = %v", got)
	}
	if got := p.Nth(255); got != MustParseAddr("192.0.2.255") {
		t.Errorf("Nth(255) = %v", got)
	}
	if MustParsePrefix("0.0.0.0/0").NumAddrs() != 1<<32 {
		t.Error("/0 NumAddrs wrong")
	}
}

func TestPrefixNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParsePrefix("192.0.2.0/24").Nth(256)
}

func TestNewPrefixPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPrefix(0, 40)
}

// Property: every address within a prefix is Contained, per Nth.
func TestPrefixNthContainedProperty(t *testing.T) {
	f := func(u uint32, bits uint8, off uint32) bool {
		b := int(bits % 33)
		p := NewPrefix(Addr(u), b)
		n := uint64(off) % p.NumAddrs()
		return p.Contains(p.Nth(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
