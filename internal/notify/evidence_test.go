package notify

import (
	"strings"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/malwaredb"
	"iotscope/internal/netx"
)

// tinyWorld hand-builds a two-operator world: devices 0 and 1 belong to
// ISP 0, device 2 to ISP 1. Device 1 is a whisperer under any reasonable
// noise floor.
func tinyWorld(t *testing.T) (*correlate.Result, *devicedb.Inventory, *geo.Registry) {
	t.Helper()
	reg, err := geo.Build(geo.Config{
		DarkPrefix:        netx.MustParsePrefix("44.0.0.0/8"),
		FillerCountries:   4,
		ISPsPerCountryMin: 1,
		ISPsPerCountryMax: 2,
		PrefixBits:        16,
		PrefixesPerISP:    1,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := devicedb.NewInventory([]devicedb.Device{
		{ID: 0, IP: netx.Addr(0x0a000001), Category: devicedb.Consumer,
			Type: devicedb.TypeRouter, ISP: 0},
		{ID: 1, IP: netx.Addr(0x0a000002), Category: devicedb.Consumer,
			Type: devicedb.TypeIPCamera, ISP: 0},
		{ID: 2, IP: netx.Addr(0x0a000003), Category: devicedb.Consumer,
			Type: devicedb.TypeDVR, ISP: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := func(id int, scan, udp uint64, days uint64) *correlate.DeviceStats {
		ds := &correlate.DeviceStats{ID: id, Records: scan + udp, DayMask: days}
		ds.Packets[classify.ScanTCP.Index()] = scan
		ds.Packets[classify.UDP.Index()] = udp
		return ds
	}
	res := &correlate.Result{
		Hours: 24,
		Devices: map[int]*correlate.DeviceStats{
			0: stats(0, 900, 100, 0b0111),
			1: stats(1, 3, 0, 0b0001), // below a floor of 10
			2: stats(2, 0, 500, 0b0001),
		},
		UDPPorts: map[uint16]*correlate.PortAgg{
			5060: {Packets: 80, Devices: []int32{0, 2}},
			123:  {Packets: 20, Devices: []int32{0}},
		},
		TCPScanPorts: map[uint16]*correlate.TCPPortAgg{
			23:   {Packets: 600, DevicesConsumer: []int32{0, 1}},
			2323: {Packets: 300, DevicesConsumer: []int32{0}},
		},
	}
	return res, inv, reg
}

// The satellite pin: a device under the MinPackets floor contributes
// NOTHING — not to the operator's packet totals, not to the port evidence,
// not to the device list. Filtering happens before aggregation.
func TestFilterPrecedesAggregation(t *testing.T) {
	res, inv, reg := tinyWorld(t)
	bundles := BuildBundles(Sources{Result: res, Inventory: inv, Registry: reg},
		Config{MinDevices: 1, MinPackets: 10})

	var isp0 *Bundle
	for i := range bundles {
		if bundles[i].ISPIndex == 0 {
			isp0 = &bundles[i]
		}
	}
	if isp0 == nil {
		t.Fatal("no bundle for ISP 0")
	}
	if len(isp0.Devices) != 1 || isp0.Devices[0].Device != 0 {
		t.Fatalf("ISP 0 devices: %+v", isp0.Devices)
	}
	// Device 1's 3 packets must not leak into the totals.
	if isp0.Packets != 1000 {
		t.Fatalf("ISP 0 packets %d, want 1000 (filtered device aggregated)", isp0.Packets)
	}
	if isp0.Records != 1000 {
		t.Fatalf("ISP 0 records %d, want 1000", isp0.Records)
	}
	// Port evidence is indexed only over surviving devices: port 23 lists
	// devices 0 and 1, but only device 0 survives.
	d0 := isp0.Devices[0]
	if len(d0.TCPPorts) != 2 || d0.TCPPorts[0] != 23 || d0.TCPPorts[1] != 2323 {
		t.Fatalf("device 0 tcp ports %v", d0.TCPPorts)
	}
	if len(d0.UDPPorts) != 2 || d0.UDPPorts[0] != 123 || d0.UDPPorts[1] != 5060 {
		t.Fatalf("device 0 udp ports %v", d0.UDPPorts)
	}
	if d0.ActiveDays != 3 {
		t.Fatalf("device 0 active days %d", d0.ActiveDays)
	}
}

// The wgen-backed invariant: with no noise floor, bundle totals still cover
// every inferred packet (the pre-existing TestBuildBundles contract), and
// with a floor the totals equal exactly the sum over surviving devices.
func TestFilteredTotalsAreConsistent(t *testing.T) {
	g, res, _ := buildWorld(t)
	cfg := Config{MinDevices: 1, MinPackets: 50}
	bundles := BuildBundles(Sources{Result: res, Inventory: g.Inventory(), Registry: g.Registry()}, cfg)
	var want uint64
	for _, ds := range res.Devices {
		if ds.TotalPackets() >= cfg.MinPackets {
			want += ds.TotalPackets()
		}
	}
	var got uint64
	for _, b := range bundles {
		var inBundle uint64
		for _, d := range b.Devices {
			if d.Packets < cfg.MinPackets {
				t.Fatalf("device %d below floor survived", d.Device)
			}
			inBundle += d.Packets
		}
		if inBundle != b.Packets {
			t.Fatalf("bundle %s totals %d, devices sum to %d", b.ISP, b.Packets, inBundle)
		}
		got += b.Packets
	}
	if got != want {
		t.Fatalf("filtered totals %d, want %d", got, want)
	}
}

func TestMalwareEvidence(t *testing.T) {
	res, inv, reg := tinyWorld(t)
	db := malwaredb.NewDB()
	add := func(sha, ip string) {
		t.Helper()
		if err := db.Add(&malwaredb.Report{
			SHA256:  sha,
			Network: malwaredb.Network{Connections: []malwaredb.Connection{{IP: ip, Port: 23, Protocol: "tcp"}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("aaaa", "10.0.0.1")
	add("bbbb", "10.0.0.1")
	add("cccc", "10.0.0.3")
	cat := malwaredb.NewCatalog(map[string]string{"aaaa": "Ramnit", "bbbb": "Zusy"})

	bundles := BuildBundles(Sources{
		Result: res, Inventory: inv, Registry: reg,
		Malware: db, Catalog: cat,
	}, DefaultConfig())

	byDevice := make(map[int]DeviceEntry)
	for _, b := range bundles {
		for _, d := range b.Devices {
			byDevice[d.Device] = d
		}
	}
	d0 := byDevice[0]
	if len(d0.MalwareHashes) != 2 || d0.MalwareHashes[0] != "aaaa" || d0.MalwareHashes[1] != "bbbb" {
		t.Fatalf("device 0 hashes %v", d0.MalwareHashes)
	}
	if len(d0.MalwareFamilies) != 2 || d0.MalwareFamilies[0] != "Ramnit" || d0.MalwareFamilies[1] != "Zusy" {
		t.Fatalf("device 0 families %v", d0.MalwareFamilies)
	}
	// Device 2's sample is not in the catalog: evidence survives as
	// "unclassified".
	d2 := byDevice[2]
	if len(d2.MalwareFamilies) != 1 || d2.MalwareFamilies[0] != "unclassified" {
		t.Fatalf("device 2 families %v", d2.MalwareFamilies)
	}
	// Device 1 has no hits.
	if len(byDevice[1].MalwareHashes) != 0 {
		t.Fatalf("device 1 hashes %v", byDevice[1].MalwareHashes)
	}
}

func TestRenderComplaint(t *testing.T) {
	res, inv, reg := tinyWorld(t)
	bundles := BuildBundles(Sources{Result: res, Inventory: inv, Registry: reg},
		Config{MinDevices: 1, MinPackets: 10})
	meta := ComplaintMeta{
		Contact: "abuse@example.net", Tier: "registry", WindowHours: 24,
	}
	c, err := RenderComplaint(bundles[0], meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		bundles[0].ISP, "unsolicited packets", "behaviours:", "tcp ports scanned: 23, 2323",
		"24 hours", "registry contact record", "abuse@example.net",
	} {
		if !strings.Contains(c.Body, want) {
			t.Fatalf("complaint body missing %q:\n%s", want, c.Body)
		}
	}
	if strings.Contains(c.Body, "follow-up report") {
		t.Fatal("first report rendered as repeat")
	}
	if !strings.Contains(c.Subject, "[abuse]") || strings.Contains(c.Subject, "[repeat]") {
		t.Fatalf("subject %q", c.Subject)
	}

	meta.Repeat = true
	meta.WindowHours = 48
	c, err = RenderComplaint(bundles[0], meta)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Body, "follow-up report") || !strings.Contains(c.Body, "48 hours") {
		t.Fatalf("repeat complaint missing window language:\n%s", c.Body)
	}
	if !strings.HasPrefix(c.Subject, "[repeat]") {
		t.Fatalf("repeat subject %q", c.Subject)
	}
}

// Port evidence is capped so a wide sweep does not explode the report.
func TestPortEvidenceCap(t *testing.T) {
	res, inv, reg := tinyWorld(t)
	for p := uint16(10000); p < 10100; p++ {
		res.TCPScanPorts[p] = &correlate.TCPPortAgg{Packets: 1, DevicesConsumer: []int32{0}}
	}
	bundles := BuildBundles(Sources{Result: res, Inventory: inv, Registry: reg}, DefaultConfig())
	for _, b := range bundles {
		for _, d := range b.Devices {
			if len(d.TCPPorts) > MaxPortsPerDevice {
				t.Fatalf("device %d carries %d ports", d.Device, len(d.TCPPorts))
			}
		}
	}
}
