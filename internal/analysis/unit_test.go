package analysis

import (
	"reflect"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/netx"
)

// handWorld builds a tiny fully hand-specified world so the analysis
// algorithms can be checked against pencil-and-paper expectations,
// independent of the workload generator.
func handWorld(t *testing.T) (*Analyzer, *correlate.Result) {
	t.Helper()
	reg, err := geo.Build(geo.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ruISPs := reg.ISPsIn("RU")
	cnISPs := reg.ISPsIn("CN")
	devices := []devicedb.Device{
		{ID: 0, IP: netx.MustParseAddr("1.0.0.1"), Category: devicedb.Consumer,
			Type: devicedb.TypeRouter, Country: "RU", ISP: ruISPs[0]},
		{ID: 1, IP: netx.MustParseAddr("1.0.0.2"), Category: devicedb.Consumer,
			Type: devicedb.TypeIPCamera, Country: "RU", ISP: ruISPs[0]},
		{ID: 2, IP: netx.MustParseAddr("1.0.0.3"), Category: devicedb.CPS,
			Type: devicedb.TypeCPS, Country: "CN", ISP: cnISPs[0],
			Services: []string{"Ethernet/IP"}},
		{ID: 3, IP: netx.MustParseAddr("1.0.0.4"), Category: devicedb.CPS,
			Type: devicedb.TypeCPS, Country: "CN", ISP: cnISPs[1],
			Services: []string{"Ethernet/IP", "Modbus TCP"}},
		// Deployed but never compromised.
		{ID: 4, IP: netx.MustParseAddr("1.0.0.5"), Category: devicedb.Consumer,
			Type: devicedb.TypeRouter, Country: "US", ISP: reg.ISPsIn("US")[0]},
	}
	inv, err := devicedb.NewInventory(devices)
	if err != nil {
		t.Fatal(err)
	}

	res := &correlate.Result{
		Hours:        6,
		Devices:      make(map[int]*correlate.DeviceStats),
		Hourly:       make([]correlate.HourStats, 6),
		UDPPorts:     make(map[uint16]*correlate.PortAgg),
		TCPScanPorts: make(map[uint16]*correlate.TCPPortAgg),
		TCPPortHour:  make([][]correlate.PortDelta, 6),
	}
	// Device 0: scanner, 100 pkts, first seen hour 0.
	res.Devices[0] = &correlate.DeviceStats{ID: 0, FirstSeen: 0, Records: 100, DayMask: 1}
	res.Devices[0].Packets[classify.ScanTCP.Index()] = 100
	// Device 1: UDP prober, 50 pkts, first seen hour 1 (day 0).
	res.Devices[1] = &correlate.DeviceStats{ID: 1, FirstSeen: 1, Records: 50, DayMask: 1}
	res.Devices[1].Packets[classify.UDP.Index()] = 50
	// Device 2: big DoS victim, 1000 backscatter concentrated at hour 3.
	res.Devices[2] = &correlate.DeviceStats{ID: 2, FirstSeen: 2, Records: 10, DayMask: 1,
		BackscatterHourly: map[int]uint64{3: 990, 2: 10}}
	res.Devices[2].Packets[classify.Backscatter.Index()] = 1000
	// Device 3: small victim, 20 backscatter at hour 3 (minority).
	res.Devices[3] = &correlate.DeviceStats{ID: 3, FirstSeen: 3, Records: 2, DayMask: 1,
		BackscatterHourly: map[int]uint64{3: 20}}
	res.Devices[3].Packets[classify.Backscatter.Index()] = 20

	// Hourly series: quiet backscatter except hour 3.
	for h := range res.Hourly {
		res.Hourly[h].Hour = h
	}
	cps := func(h int) *correlate.CatHour { return res.Hourly[h].Cat(devicedb.CPS) }
	cons := func(h int) *correlate.CatHour { return res.Hourly[h].Cat(devicedb.Consumer) }
	cons(0).Packets[classify.ScanTCP.Index()] = 100
	cons(1).Packets[classify.UDP.Index()] = 50
	cps(2).Packets[classify.Backscatter.Index()] = 10
	cps(3).Packets[classify.Backscatter.Index()] = 1010
	cps(4).Packets[classify.Backscatter.Index()] = 8
	cps(5).Packets[classify.Backscatter.Index()] = 12

	return New(res, inv, reg), res
}

func TestUnitSummary(t *testing.T) {
	a, _ := handWorld(t)
	s := a.Summary()
	if s.Total != 4 || s.Consumer != 2 || s.CPS != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.Countries != 2 {
		t.Fatalf("countries %d", s.Countries)
	}
	if s.PacketsTotal != 100+50+1010+8+12+10 {
		t.Fatalf("packets %d", s.PacketsTotal)
	}
}

func TestUnitCompromisedByCountry(t *testing.T) {
	a, _ := handWorld(t)
	rows := a.CompromisedByCountry(10)
	if len(rows) != 2 {
		t.Fatalf("rows %+v", rows)
	}
	// RU and CN tie at 2; ties break by code: CN first.
	if rows[0].Code != "CN" || rows[1].Code != "RU" {
		t.Fatalf("ordering %+v", rows)
	}
	// Both RU devices compromised of 2 deployed -> 100 %.
	if rows[1].PctCompromised != 100 {
		t.Fatalf("RU pct %v", rows[1].PctCompromised)
	}
}

func TestUnitDeployedByCountry(t *testing.T) {
	a, _ := handWorld(t)
	rows, cum := a.DeployedByCountry(2)
	if len(rows) != 2 || cum <= 0 || cum > 1 {
		t.Fatalf("rows %v cum %v", rows, cum)
	}
	// RU (2) and CN (2) tie ahead of US (1): 4/5 covered.
	if got := cum; got != 0.8 {
		t.Fatalf("cumulative %v", got)
	}
}

func TestUnitDiscoveryTimeline(t *testing.T) {
	a, _ := handWorld(t)
	tl := a.DiscoveryTimeline()
	if len(tl) != 1 { // 6 hours = 1 day
		t.Fatalf("days %d", len(tl))
	}
	if tl[0].NewDevices != 4 || tl[0].CumulativeAll != 4 {
		t.Fatalf("day 0 %+v", tl[0])
	}
}

func TestUnitConsumerTypeMix(t *testing.T) {
	a, _ := handWorld(t)
	rows := a.ConsumerTypeMix()
	if len(rows) != 2 {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		if r.Pct != 50 {
			t.Fatalf("pct %+v", rows)
		}
	}
}

func TestUnitTopISPs(t *testing.T) {
	a, _ := handWorld(t)
	cons := a.TopISPs(devicedb.Consumer, 5)
	if len(cons) != 1 || cons[0].Devices != 2 || cons[0].Pct != 100 {
		t.Fatalf("consumer ISPs %+v", cons)
	}
	cps := a.TopISPs(devicedb.CPS, 5)
	if len(cps) != 2 || cps[0].Devices != 1 {
		t.Fatalf("cps ISPs %+v", cps)
	}
}

func TestUnitCPSServices(t *testing.T) {
	a, _ := handWorld(t)
	rows := a.CPSServices(10)
	if len(rows) != 2 {
		t.Fatalf("rows %+v", rows)
	}
	if rows[0].Service != "Ethernet/IP" || rows[0].Devices != 2 || rows[0].Pct != 100 {
		t.Fatalf("ethernet/ip row %+v", rows[0])
	}
	if rows[1].Service != "Modbus TCP" || rows[1].Pct != 50 {
		t.Fatalf("modbus row %+v", rows[1])
	}
	if rows[0].Application == "" {
		t.Fatal("application text missing")
	}
}

func TestUnitVictimsByCountry(t *testing.T) {
	a, _ := handWorld(t)
	rows := a.VictimsByCountry(5, false)
	if len(rows) != 1 || rows[0].Code != "CN" || rows[0].Victims != 2 {
		t.Fatalf("victim rows %+v", rows)
	}
	if rows[0].CPSVictims != 2 || rows[0].ConsumerVictims != 0 {
		t.Fatalf("victim split %+v", rows[0])
	}
	byPkts := a.VictimsByCountry(5, true)
	if byPkts[0].Packets != 1020 {
		t.Fatalf("victim packets %+v", byPkts[0])
	}
}

func TestUnitBackscatterSummary(t *testing.T) {
	a, _ := handWorld(t)
	s := a.Backscatter()
	if s.Victims != 2 || s.CPSVictims != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.Packets != 1020 || s.CPSPacketShare != 100 {
		t.Fatalf("packets %+v", s)
	}
	if s.VictimsUnder170 != 1 { // device 3 with 20
		t.Fatalf("under-170 %+v", s)
	}
}

func TestUnitProtocolBreakdownConservation(t *testing.T) {
	a, _ := handWorld(t)
	mix := a.ProtocolBreakdown()
	sum := mix.TCPCPS + mix.TCPConsumer + mix.UDPCPS + mix.UDPConsumer +
		mix.ICMPCPS + mix.ICMPConsumer
	if sum < 99.99 || sum > 100.01 {
		t.Fatalf("mix sums to %v", sum)
	}
}

// Fig. 10 by hand: Telnet's 23 and 2323 both carry cells in hour 0 and in
// hours 2–3, its 23231 is never scanned, HTTP's 80 and 8080 and SSH's 22
// share those hours without leaking into Telnet, and hour 1 has no cells.
func TestUnitServiceHourlySeries(t *testing.T) {
	res := &correlate.Result{
		Hours: 4,
		TCPPortHour: [][]correlate.PortDelta{
			{{Port: 23, Packets: 5}, {Port: 80, Packets: 11}, {Port: 2323, Packets: 7}},
			nil,
			{{Port: 22, Packets: 3}, {Port: 23, Packets: 2}},
			{{Port: 2323, Packets: 4}, {Port: 8080, Packets: 9}},
		},
	}
	a := New(res, nil, nil)
	for _, tc := range []struct {
		def  ScanServiceDef
		want []float64
	}{
		{ScanServiceDef{"Telnet", []uint16{23, 2323, 23231}}, []float64{12, 0, 2, 4}},
		{ScanServiceDef{"HTTP", []uint16{80, 8080, 81}}, []float64{11, 0, 0, 9}},
		{ScanServiceDef{"SSH", []uint16{22}}, []float64{0, 0, 3, 0}},
		{ScanServiceDef{"CWMP", []uint16{7547}}, []float64{0, 0, 0, 0}},
	} {
		if got := a.ServiceHourlySeries(tc.def); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s series %v, want %v", tc.def.Name, got, tc.want)
		}
	}
}

func TestUnitEmptyResultSafety(t *testing.T) {
	reg, err := geo.Build(geo.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	inv, _ := devicedb.NewInventory(nil)
	res := &correlate.Result{
		Hours:        0,
		Devices:      map[int]*correlate.DeviceStats{},
		UDPPorts:     map[uint16]*correlate.PortAgg{},
		TCPScanPorts: map[uint16]*correlate.TCPPortAgg{},
		TCPPortHour:  [][]correlate.PortDelta{},
	}
	a := New(res, inv, reg)
	if s := a.Summary(); s.Total != 0 {
		t.Fatal("empty summary")
	}
	if rows := a.CompromisedByCountry(5); len(rows) != 0 {
		t.Fatal("rows from empty result")
	}
	if tl := a.DiscoveryTimeline(); tl != nil {
		t.Fatal("timeline from empty result")
	}
	if _, ok := a.WidestPortSweep(); ok {
		t.Fatal("sweep from empty result")
	}
	mix := a.ProtocolBreakdown()
	if mix.TCPCPS != 0 {
		t.Fatal("mix from empty result")
	}
}
