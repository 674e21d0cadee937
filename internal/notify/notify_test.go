package notify

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/netx"
	"iotscope/internal/threatintel"
	"iotscope/internal/wgen"
)

func buildWorld(t *testing.T) (*wgen.Generator, *correlate.Result, *threatintel.Repository) {
	t.Helper()
	dir, err := os.MkdirTemp("", "notify-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sc := wgen.Default(0.004, 909)
	sc.Hours = 24
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	res, err := correlate.New(g.Inventory(), correlate.Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// Small noise pool for the intel generator.
	pool := noise(g, 50)
	repo, err := threatintel.Generate(threatintel.DefaultGenConfig(), g.Truth(), g.Inventory(), pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, repo
}

func noise(g *wgen.Generator, n int) (out []netx.Addr) {
	for i := 0; len(out) < n; i++ {
		a := netx.Addr(0x63000001 + i*977)
		if _, isIoT := g.Inventory().LookupIP(a); !isIoT {
			out = append(out, a)
		}
	}
	return out
}

func TestBuildBundles(t *testing.T) {
	g, res, repo := buildWorld(t)
	bundles := BuildBundles(Sources{Result: res, Inventory: g.Inventory(), Registry: g.Registry(), Threat: repo},
		DefaultConfig())
	if len(bundles) == 0 {
		t.Fatal("no bundles")
	}
	// Every inferred device appears in exactly one bundle.
	seen := make(map[int]int)
	var pkts uint64
	for _, b := range bundles {
		if b.ISP == "" || b.ASN == 0 || b.Country == "" {
			t.Fatalf("bundle missing operator metadata: %+v", b)
		}
		for _, d := range b.Devices {
			seen[d.Device]++
			if len(d.Behaviours) == 0 {
				t.Fatalf("device %d with no behaviours", d.Device)
			}
		}
		pkts += b.Packets
	}
	if len(seen) != len(res.Devices) {
		t.Fatalf("bundled %d devices, inferred %d", len(seen), len(res.Devices))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("device %d in %d bundles", id, n)
		}
	}
	if pkts != res.TotalIoTPackets() {
		t.Fatalf("bundle packets %d != total %d", pkts, res.TotalIoTPackets())
	}
	// Sorted by device count descending.
	for i := 1; i < len(bundles); i++ {
		if len(bundles[i].Devices) > len(bundles[i-1].Devices) {
			t.Fatal("bundles not sorted")
		}
	}
}

func TestBuildFilters(t *testing.T) {
	g, res, _ := buildWorld(t)
	src := Sources{Result: res, Inventory: g.Inventory(), Registry: g.Registry()}
	cfg := Config{MinDevices: 3, MinPackets: 1}
	bundles := BuildBundles(src, cfg)
	for _, b := range bundles {
		if len(b.Devices) < 3 {
			t.Fatalf("bundle below MinDevices: %+v", b)
		}
	}
	// High packet floor drops low-volume devices.
	cfg = Config{MinDevices: 1, MinPackets: 1 << 40}
	if got := BuildBundles(src, cfg); len(got) != 0 {
		t.Fatalf("packet floor ignored: %d bundles", len(got))
	}
}

func TestThreatCorroboration(t *testing.T) {
	g, res, repo := buildWorld(t)
	src := Sources{Result: res, Inventory: g.Inventory(), Registry: g.Registry(), Threat: repo}
	bundles := BuildBundles(src, DefaultConfig())
	flagged := 0
	for _, b := range bundles {
		for _, d := range b.Devices {
			flagged += len(d.ThreatFlags)
		}
	}
	if flagged == 0 {
		t.Fatal("no threat corroboration despite a populated repository")
	}
	// Without a repository there are no flags.
	src.Threat = nil
	bundles = BuildBundles(src, DefaultConfig())
	for _, b := range bundles {
		for _, d := range b.Devices {
			if len(d.ThreatFlags) != 0 {
				t.Fatal("flags without repository")
			}
		}
	}
}

// A device with no corroborating intel must render cleanly: no
// "corroborated" line and no empty-services parenthetical.
func TestRenderZeroThreatFlags(t *testing.T) {
	b := Bundle{
		ISP: "Example-Net", ASN: 64500, Country: "DE",
		Devices: []DeviceEntry{{
			Device: 7, IP: "10.1.2.3", Category: "consumer", Type: "camera",
			FirstSeen: 4, Packets: 123, Behaviours: []string{"tcp-scanning"},
		}},
		Packets: 123,
	}
	var buf bytes.Buffer
	if err := b.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "corroborated by threat intelligence") {
		t.Fatalf("flag-free device rendered a corroboration line:\n%s", out)
	}
	if strings.Contains(out, "()") {
		t.Fatalf("empty services rendered as ():\n%s", out)
	}
	if !strings.Contains(out, "1 compromised IoT device(s)") {
		t.Fatalf("device count missing:\n%s", out)
	}
}

// Operators with empty metadata (unknown ISP name, zero ASN, no country)
// still produce a well-formed report rather than a panic or garbage.
func TestRenderEmptyISPMetadata(t *testing.T) {
	b := Bundle{
		Devices: []DeviceEntry{{
			Device: 1, IP: "192.0.2.1", Category: "cps", Type: "plc",
			Packets: 9, Behaviours: []string{"udp-probing"},
		}},
		Packets: 9,
	}
	var buf bytes.Buffer
	if err := b.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "To: abuse contact,  (AS0, )") {
		t.Fatalf("empty-metadata header malformed:\n%s", out)
	}
	if !strings.Contains(out, "192.0.2.1") {
		t.Fatalf("device line missing:\n%s", out)
	}
}

// MinDevices above every operator's device count yields zero bundles, and
// MinDevices below 1 is normalized up rather than panicking.
func TestBuildMinDevicesBoundaries(t *testing.T) {
	g, res, _ := buildWorld(t)
	src := Sources{Result: res, Inventory: g.Inventory(), Registry: g.Registry()}
	if got := BuildBundles(src, Config{MinDevices: 1 << 30, MinPackets: 1}); len(got) != 0 {
		t.Fatalf("MinDevices 2^30 produced %d bundles", len(got))
	}
	zero := BuildBundles(src, Config{MinDevices: 0, MinPackets: 1})
	one := BuildBundles(src, Config{MinDevices: 1, MinPackets: 1})
	if len(zero) != len(one) {
		t.Fatalf("MinDevices 0 (%d bundles) not normalized to 1 (%d bundles)",
			len(zero), len(one))
	}
}

func TestRender(t *testing.T) {
	g, res, repo := buildWorld(t)
	bundles := BuildBundles(Sources{Result: res, Inventory: g.Inventory(), Registry: g.Registry(), Threat: repo},
		DefaultConfig())
	var buf bytes.Buffer
	if err := bundles[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"To: abuse contact", bundles[0].ISP, "compromised IoT device",
		"first seen hour", "remediate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}
