package correlate

import (
	"context"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/telescope"
	"iotscope/internal/wgen"
)

// buildTinyDataset writes a handcrafted 2-hour dataset with one consumer
// device, one CPS device, and one background source.
func buildTinyDataset(t *testing.T) (dir string, inv *devicedb.Inventory) {
	t.Helper()
	dir = t.TempDir()
	consumerIP := netx.MustParseAddr("1.2.3.4")
	cpsIP := netx.MustParseAddr("5.6.7.8")
	bgIP := netx.MustParseAddr("9.9.9.9")
	var err error
	inv, err = devicedb.NewInventory([]devicedb.Device{
		{ID: 0, IP: consumerIP, Category: devicedb.Consumer, Type: devicedb.TypeRouter, Country: "RU"},
		{ID: 1, IP: cpsIP, Category: devicedb.CPS, Type: devicedb.TypeCPS, Country: "CN",
			Services: []string{"Ethernet/IP"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	tel := telescope.New(netx.MustParsePrefix("44.0.0.0/8"))
	col := telescope.NewCollector(tel, dir)
	dark1 := uint32(netx.MustParseAddr("44.0.0.1"))
	dark2 := uint32(netx.MustParseAddr("44.0.0.2"))

	// Hour 0: consumer scans Telnet on two destinations; CPS sends UDP.
	if err := col.BeginHour(0); err != nil {
		t.Fatal(err)
	}
	obs := func(rec flowtuple.Record) {
		t.Helper()
		if err := col.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	obs(flowtuple.Record{SrcIP: uint32(consumerIP), DstIP: dark1, SrcPort: 4000, DstPort: 23,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN, Packets: 2})
	obs(flowtuple.Record{SrcIP: uint32(consumerIP), DstIP: dark2, SrcPort: 4000, DstPort: 2323,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN, Packets: 1})
	obs(flowtuple.Record{SrcIP: uint32(cpsIP), DstIP: dark1, SrcPort: 5000, DstPort: 37547,
		Protocol: flowtuple.ProtoUDP, Packets: 5})
	obs(flowtuple.Record{SrcIP: uint32(bgIP), DstIP: dark1, SrcPort: 1, DstPort: 80,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN, Packets: 7})
	if err := col.EndHour(); err != nil {
		t.Fatal(err)
	}

	// Hour 1: CPS emits backscatter (it is a DoS victim).
	if err := col.BeginHour(1); err != nil {
		t.Fatal(err)
	}
	obs(flowtuple.Record{SrcIP: uint32(cpsIP), DstIP: dark2, SrcPort: 44818, DstPort: 6000,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN | flowtuple.FlagACK, Packets: 10})
	obs(flowtuple.Record{SrcIP: uint32(consumerIP), DstIP: dark1, SrcPort: 4001, DstPort: 23,
		Protocol: flowtuple.ProtoTCP, TCPFlags: flowtuple.FlagSYN, Packets: 3})
	if err := col.EndHour(); err != nil {
		t.Fatal(err)
	}
	return dir, inv
}

func TestProcessDatasetTiny(t *testing.T) {
	dir, inv := buildTinyDataset(t)
	res, err := New(inv, Options{Workers: 2}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hours != 2 {
		t.Fatalf("hours %d", res.Hours)
	}
	if len(res.Devices) != 2 {
		t.Fatalf("inferred %d devices", len(res.Devices))
	}

	consumer := res.Devices[0]
	if consumer.FirstSeen != 0 || consumer.Records != 3 {
		t.Fatalf("consumer stats %+v", consumer)
	}
	if got := consumer.Packets[classify.ScanTCP.Index()]; got != 6 {
		t.Fatalf("consumer scan packets %d", got)
	}

	cps := res.Devices[1]
	if got := cps.Packets[classify.UDP.Index()]; got != 5 {
		t.Fatalf("cps UDP packets %d", got)
	}
	if got := cps.Packets[classify.Backscatter.Index()]; got != 10 {
		t.Fatalf("cps backscatter packets %d", got)
	}
	if cps.BackscatterHourly[1] != 10 {
		t.Fatalf("cps hourly backscatter %v", cps.BackscatterHourly)
	}

	// Background fully excluded and counted.
	if res.Background.Packets != 7 || res.Background.Records != 1 {
		t.Fatalf("background %+v", res.Background)
	}
	if res.Background.Sources == 0 {
		t.Fatal("background sources not estimated")
	}

	// Port tables.
	if res.UDPPorts[37547].Packets != 5 || len(res.UDPPorts[37547].Devices) != 1 {
		t.Fatalf("UDP port agg %+v", res.UDPPorts[37547])
	}
	telnet := res.TCPScanPorts[23]
	if telnet.Packets != 5 || telnet.PacketsConsumer != 5 || len(telnet.DevicesConsumer) != 1 {
		t.Fatalf("telnet agg %+v", telnet)
	}
	if res.TCPScanPorts[2323].Packets != 1 {
		t.Fatalf("2323 agg %+v", res.TCPScanPorts[2323])
	}

	// Hourly series.
	if got := res.Hourly[0].Cat(devicedb.Consumer).ScanDstIPs; got != 2 {
		t.Fatalf("hour 0 consumer scan dst IPs %d", got)
	}
	if got := res.Hourly[0].Cat(devicedb.Consumer).ScanDstPorts; got != 2 {
		t.Fatalf("hour 0 consumer scan dst ports %d", got)
	}
	if got := res.Hourly[0].Cat(devicedb.CPS).UDPDstIPs; got != 1 {
		t.Fatalf("hour 0 cps UDP dst IPs %d", got)
	}
	if got := res.Hourly[0].Cat(devicedb.Consumer).ActiveDevices; got != 1 {
		t.Fatalf("hour 0 consumer active %d", got)
	}
	// Per-hour time series of port 23.
	if res.TCPPortHour[PortHour{Port: 23, Hour: 0}] != 2 ||
		res.TCPPortHour[PortHour{Port: 23, Hour: 1}] != 3 {
		t.Fatalf("port-hour series %v", res.TCPPortHour)
	}
}

func TestResultHelpers(t *testing.T) {
	dir, inv := buildTinyDataset(t)
	res, err := New(inv, Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalIoTPackets(); got != 21 {
		t.Fatalf("total IoT packets %d", got)
	}
	if got := res.ClassPackets(classify.ScanTCP, 0); got != 6 {
		t.Fatalf("scan packets %d", got)
	}
	if got := res.ClassPackets(classify.ScanTCP, devicedb.CPS); got != 0 {
		t.Fatalf("cps scan packets %d", got)
	}
	series := res.HourlyClassSeries(classify.Backscatter, devicedb.CPS)
	if series[0] != 0 || series[1] != 10 {
		t.Fatalf("backscatter series %v", series)
	}
	total := res.HourlyTotalSeries(0)
	if total[0] != 8 || total[1] != 13 {
		t.Fatalf("total series %v", total)
	}
	dev := res.Devices[1]
	if dev.TotalPackets() != 15 {
		t.Fatalf("device total %d", dev.TotalPackets())
	}
}

func TestIngestSingleHour(t *testing.T) {
	dir, inv := buildTinyDataset(t)
	inc, err := New(inv, Options{}).NewIncremental(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 1); err != nil {
		t.Fatal(err)
	}
	res := inc.Result()
	if len(res.Devices) != 2 {
		t.Fatalf("devices %d", len(res.Devices))
	}
	if res.Devices[1].Packets[classify.Backscatter.Index()] != 10 {
		t.Fatal("hour-1 backscatter missing")
	}
}

func TestProcessDatasetEmptyDir(t *testing.T) {
	inv, _ := devicedb.NewInventory(nil)
	if _, err := New(inv, Options{}).ProcessDataset(context.Background(), t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestPortBitset(t *testing.T) {
	var b portBitset
	if b.count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	b.add(0)
	b.add(65535)
	b.add(23)
	b.add(23)
	if got := b.count(); got != 3 {
		t.Fatalf("count %d", got)
	}
}

// End-to-end with the workload generator: ground truth must be recovered.
func TestRecoverGroundTruth(t *testing.T) {
	sc := wgen.Default(0.002, 77)
	sc.Hours = 30
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	res, err := New(g.Inventory(), Options{Workers: 2}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.Truth()

	// Every inferred device must be in the ground truth (no false
	// positives: background sources are outside the inventory, and
	// non-compromised inventory devices never emit).
	truthSet := make(map[int]bool, len(truth.Compromised))
	for _, id := range truth.Compromised {
		truthSet[id] = true
	}
	for id := range res.Devices {
		if !truthSet[id] {
			t.Fatalf("inferred device %d not in ground truth", id)
		}
	}

	// Every planted device with onset within the window must be recovered.
	expected := 0
	for _, id := range truth.Compromised {
		if truth.OnsetHour[id] < sc.Hours {
			expected++
			if _, ok := res.Devices[id]; !ok {
				t.Errorf("planted device %d (onset %d) not inferred",
					id, truth.OnsetHour[id])
			}
		}
	}
	if len(res.Devices) != expected {
		t.Fatalf("inferred %d devices, expected %d", len(res.Devices), expected)
	}

	// First-seen must match the planted onset for devices seen.
	mismatches := 0
	for id, ds := range res.Devices {
		if ds.FirstSeen != truth.OnsetHour[id] {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d devices with first-seen != planted onset", mismatches)
	}
}

func BenchmarkProcessDataset(b *testing.B) {
	sc := wgen.Default(0.002, 1)
	sc.Hours = 10
	g, err := wgen.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		b.Fatal(err)
	}
	c := New(g.Inventory(), Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ProcessDataset(context.Background(), dir); err != nil {
			b.Fatal(err)
		}
	}
}
