package wgen

import (
	"context"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
)

const testScale = 0.002

func testGenerator(t testing.TB, scale float64, seed uint64) *Generator {
	t.Helper()
	sc := Default(scale, seed)
	g, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	sc := Default(0, 1)
	if _, err := New(sc); err == nil {
		t.Error("scale 0 accepted")
	}
	sc = Default(2, 1)
	if _, err := New(sc); err == nil {
		t.Error("scale 2 accepted")
	}
	sc = Default(0.01, 1)
	sc.Hours = 0
	if _, err := New(sc); err == nil {
		t.Error("0 hours accepted")
	}
}

func TestCompromisedPopulationShape(t *testing.T) {
	g := testGenerator(t, 0.01, 42)
	truth := g.Truth()

	wantTotal := scaleCount(26881, 0.01)
	if got := len(truth.Compromised); got != wantTotal {
		t.Fatalf("compromised %d want %d", got, wantTotal)
	}

	// Realm split ~57/43.
	var cons, cps int
	byCountry := make(map[string]int)
	for _, id := range truth.Compromised {
		d := g.Inventory().At(id)
		if d.Category == devicedb.Consumer {
			cons++
		} else {
			cps++
		}
		byCountry[d.Country]++
	}
	consShare := float64(cons) / float64(cons+cps)
	if consShare < 0.52 || consShare > 0.62 {
		t.Errorf("consumer share %v want ~0.57", consShare)
	}

	// Russia must lead compromised countries (Fig. 1b) even though the US
	// leads deployment (Fig. 1a).
	if byCountry["RU"] <= byCountry["US"] {
		t.Errorf("RU %d should exceed US %d among compromised", byCountry["RU"], byCountry["US"])
	}
	ruShare := float64(byCountry["RU"]) / float64(len(truth.Compromised))
	if ruShare < 0.18 || ruShare > 0.31 {
		t.Errorf("RU compromised share %v want ~0.245", ruShare)
	}
}

func TestConsumerCompromisedTypeMix(t *testing.T) {
	g := testGenerator(t, 0.01, 7)
	byType := make(map[devicedb.DeviceType]int)
	total := 0
	for _, id := range g.Truth().Compromised {
		d := g.Inventory().At(id)
		if d.Category != devicedb.Consumer {
			continue
		}
		byType[d.Type]++
		total++
	}
	routerShare := float64(byType[devicedb.TypeRouter]) / float64(total)
	if routerShare < 0.42 || routerShare > 0.64 {
		t.Errorf("router share %v want ~0.524", routerShare)
	}
	if !(byType[devicedb.TypeRouter] > byType[devicedb.TypeIPCamera] &&
		byType[devicedb.TypeIPCamera] > byType[devicedb.TypePrinter] &&
		byType[devicedb.TypePrinter] > byType[devicedb.TypeStorage]) {
		t.Errorf("type ordering %v", byType)
	}
}

func TestBehaviourPopulations(t *testing.T) {
	g := testGenerator(t, 0.01, 11)
	truth := g.Truth()

	nScan := len(truth.TCPScanners)
	if want := scaleCount(12363, 0.01); nScan < want-5 || nScan > want+5 {
		t.Errorf("TCP scanners %d want ~%d", nScan, want)
	}
	// Nearly all compromised devices probe UDP (ensureAllEmit also adds a
	// trickle, so probers can exceed the configured population).
	if nProbe := len(truth.UDPProbers); nProbe < scaleCount(25242, 0.01) {
		t.Errorf("UDP probers %d", nProbe)
	}
	nVict := len(truth.Victims)
	wantVict := scaleCount(839, 0.01)
	if nVict < wantVict-2 || nVict > wantVict+len(g.sc.Backscatter.Events)+2 {
		t.Errorf("victims %d want ~%d", nVict, wantVict)
	}
	if len(truth.ICMPScanners) == 0 {
		t.Error("no ICMP scanners assigned")
	}

	// Event victims resolved.
	for _, ev := range g.sc.Backscatter.Events {
		if _, ok := truth.EventVictims[ev.Name]; !ok {
			t.Errorf("event %q has no victim", ev.Name)
		}
	}
}

func TestOnsetDistribution(t *testing.T) {
	g := testGenerator(t, 0.01, 13)
	day1 := 0
	total := 0
	for _, h := range g.Truth().OnsetHour {
		if h < 24 {
			day1++
		}
		if h < 0 || h >= g.sc.Hours {
			t.Fatalf("onset %d out of window", h)
		}
		total++
	}
	frac := float64(day1) / float64(total)
	// Scripted events pull a few onsets into day one beyond the 46 %.
	if frac < 0.36 || frac > 0.60 {
		t.Errorf("day-1 onset fraction %v want ~0.46", frac)
	}
}

func TestEmitHourDeterministic(t *testing.T) {
	collect := func(seed uint64) []flowtuple.Record {
		g := testGenerator(t, testScale, seed)
		var recs []flowtuple.Record
		if err := g.EmitHour(10, func(r flowtuple.Record) { recs = append(recs, r) }); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := collect(99), collect(99)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := collect(100)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traffic")
		}
	}
}

func TestEmitHourBounds(t *testing.T) {
	g := testGenerator(t, testScale, 1)
	if err := g.EmitHour(-1, func(flowtuple.Record) {}); err == nil {
		t.Error("negative hour accepted")
	}
	if err := g.EmitHour(g.sc.Hours, func(flowtuple.Record) {}); err == nil {
		t.Error("hour beyond window accepted")
	}
}

func TestTrafficComposition(t *testing.T) {
	g := testGenerator(t, 0.005, 21)
	inv := g.Inventory()

	classPkts := make(map[classify.Class]uint64)
	var iotPkts, bgPkts uint64
	synToDark := 0
	// Sample a few mid-window hours.
	for _, h := range []int{30, 31, 60, 61, 100} {
		err := g.EmitHour(h, func(rec flowtuple.Record) {
			if !g.sc.DarkPrefix().Contains(netx.Addr(rec.DstIP)) {
				t.Fatalf("record destined outside darknet: %v", rec)
			}
			synToDark++
			cls := classify.Record(rec)
			if _, isIoT := inv.LookupIP(netx.Addr(rec.SrcIP)); isIoT {
				iotPkts += uint64(rec.Packets)
				classPkts[cls] += uint64(rec.Packets)
			} else {
				bgPkts += uint64(rec.Packets)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if iotPkts == 0 || bgPkts == 0 {
		t.Fatalf("iot=%d bg=%d packets", iotPkts, bgPkts)
	}
	// TCP scanning dominates IoT traffic (paper: ~71 %).
	scanShare := float64(classPkts[classify.ScanTCP]) / float64(iotPkts)
	if scanShare < 0.45 || scanShare > 0.92 {
		t.Errorf("TCP scan share %v", scanShare)
	}
	if classPkts[classify.UDP] == 0 {
		t.Error("no UDP traffic")
	}
	if classPkts[classify.Other] == 0 {
		t.Error("no other traffic")
	}
}

func TestScriptedBackscatterSpike(t *testing.T) {
	g := testGenerator(t, 0.005, 23)
	inv := g.Inventory()

	backscatter := func(hour int) uint64 {
		var total uint64
		err := g.EmitHour(hour, func(rec flowtuple.Record) {
			if _, isIoT := inv.LookupIP(netx.Addr(rec.SrcIP)); !isIoT {
				return
			}
			if classify.Record(rec) == classify.Backscatter {
				total += uint64(rec.Packets)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	spike := backscatter(7)   // inside cn-ethip-1 event
	quiet := backscatter(110) // no scripted event
	if spike < 4*quiet || spike == 0 {
		t.Errorf("event-hour backscatter %d not dominating quiet hour %d", spike, quiet)
	}
}

func TestScriptedEventVictimService(t *testing.T) {
	g := testGenerator(t, 0.01, 29)
	id, ok := g.Truth().EventVictims["cn-ethip-1"]
	if !ok {
		t.Fatal("cn-ethip-1 unresolved")
	}
	d := g.Inventory().At(id)
	if d.Category != devicedb.CPS {
		t.Errorf("event victim category %v", d.Category)
	}
	// Country and service honored when candidates exist at this scale.
	if d.Country != "CN" {
		t.Logf("event victim relaxed to country %s (acceptable at small scale)", d.Country)
	}
}

func TestBackroomNetRamp(t *testing.T) {
	g := testGenerator(t, 0.005, 31)
	count3387 := func(hour int) int {
		n := 0
		err := g.EmitHour(hour, func(rec flowtuple.Record) {
			if rec.Protocol == flowtuple.ProtoTCP && rec.DstPort == 3387 &&
				rec.TCPFlags == flowtuple.FlagSYN {
				n += int(rec.Packets)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := count3387(50)
	after := count3387(120)
	if after < 10*maxInt(before, 1) {
		t.Errorf("BackroomNet scanning before=%d after=%d; expected surge after hour 113", before, after)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestPortSpikeEvent(t *testing.T) {
	g := testGenerator(t, 0.005, 37)
	ports := make(map[uint16]bool)
	spikeHour := g.sc.TCPScan.PortSpikeHour
	err := g.EmitHour(spikeHour, func(rec flowtuple.Record) {
		if rec.Protocol == flowtuple.ProtoTCP && rec.TCPFlags == flowtuple.FlagSYN {
			ports[rec.DstPort] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) < 5000 {
		t.Errorf("unique scanned ports at spike hour = %d, want thousands", len(ports))
	}
}

func TestRunWritesDataset(t *testing.T) {
	sc := Default(testScale, 51)
	sc.Hours = 6 // keep the test fast
	g, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stats, err := g.Run(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hours != 6 || stats.Collector.HoursWritten != 6 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Collector.PacketsDropped != 0 {
		t.Errorf("%d packets leaked outside darknet", stats.Collector.PacketsDropped)
	}
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 6 {
		t.Fatalf("hours %v", hours)
	}
	// Files readable and non-empty overall.
	var total uint64
	for _, h := range hours {
		if err := flowtuple.WalkHourBatch(context.Background(), dir, h, func(batch []flowtuple.Record) error {
			for _, rec := range batch {
				total += uint64(rec.Packets)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total != stats.Collector.PacketsObserved {
		t.Fatalf("persisted %d packets, observed %d", total, stats.Collector.PacketsObserved)
	}
}

func TestAllCompromisedEventuallyEmit(t *testing.T) {
	// Over the full window every compromised device must appear at least
	// once (its onset hour forces activity).
	sc := Default(testScale, 61)
	sc.Hours = 48
	g, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	for h := 0; h < sc.Hours; h++ {
		if err := g.EmitHour(h, func(rec flowtuple.Record) {
			seen[rec.SrcIP] = true
		}); err != nil {
			t.Fatal(err)
		}
	}
	missing := 0
	for _, id := range g.Truth().Compromised {
		d := g.Inventory().At(id)
		if g.Truth().OnsetHour[id] < sc.Hours && !seen[uint32(d.IP)] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d compromised devices with onset inside the window never emitted", missing)
	}
}

func BenchmarkEmitHour(b *testing.B) {
	g := testGenerator(b, 0.005, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.EmitHour(i%g.sc.Hours, func(flowtuple.Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewGenerator(b *testing.B) {
	sc := Default(0.005, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i)
		if _, err := New(sc); err != nil {
			b.Fatal(err)
		}
	}
}
