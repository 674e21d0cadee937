package analysis

import (
	"context"
	"math"
	"os"
	"sync"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/wgen"
)

// Shared fixture: one full-window dataset at small scale, analyzed once.
var (
	fixtureOnce sync.Once
	fixtureErr  error
	fixture     *Analyzer
	fixtureGen  *wgen.Generator
)

func loadFixture(t *testing.T) (*Analyzer, *wgen.Generator) {
	t.Helper()
	fixtureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "analysis-fixture-*")
		if err != nil {
			fixtureErr = err
			return
		}
		sc := wgen.Default(0.006, 2024)
		g, err := wgen.New(sc)
		if err != nil {
			fixtureErr = err
			return
		}
		if _, err := g.Run(context.Background(), dir); err != nil {
			fixtureErr = err
			return
		}
		res, err := correlate.New(g.Inventory(), correlate.Options{}).ProcessDataset(context.Background(), dir)
		if err != nil {
			fixtureErr = err
			return
		}
		fixture = New(res, g.Inventory(), g.Registry())
		fixtureGen = g
		os.RemoveAll(dir)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture, fixtureGen
}

func TestSummaryHeadline(t *testing.T) {
	a, g := loadFixture(t)
	s := a.Summary()
	want := len(g.Truth().Compromised)
	if s.Total != want {
		t.Fatalf("inferred %d devices, planted %d", s.Total, want)
	}
	consShare := float64(s.Consumer) / float64(s.Total)
	if consShare < 0.50 || consShare > 0.64 {
		t.Errorf("consumer share %v want ~0.57", consShare)
	}
	if s.Countries < 10 {
		t.Errorf("countries %d", s.Countries)
	}
	if s.PacketsTotal == 0 {
		t.Error("no packets")
	}
	// Daily active should be a substantial fraction of the population
	// (paper: ~40 %), though well below 100 %.
	activeFrac := s.MeanDailyActiveDevices / float64(s.Total)
	if activeFrac < 0.2 || activeFrac > 0.95 {
		t.Errorf("daily active fraction %v", activeFrac)
	}
}

func TestFig1DeploymentVsCompromise(t *testing.T) {
	a, _ := loadFixture(t)
	deployed, cum := a.DeployedByCountry(15)
	if len(deployed) != 15 {
		t.Fatalf("deployment rows %d", len(deployed))
	}
	if deployed[0].Code != "US" {
		t.Errorf("deployment leader %s want US", deployed[0].Code)
	}
	if cum < 0.6 || cum > 0.8 {
		t.Errorf("top-15 cumulative share %v want ~0.693", cum)
	}

	compromised := a.CompromisedByCountry(15)
	if compromised[0].Code != "RU" {
		t.Errorf("compromised leader %s want RU", compromised[0].Code)
	}
	// The paper's contrast: RU compromise rate far above US.
	var ru, us CountryRow
	for _, r := range compromised {
		switch r.Code {
		case "RU":
			ru = r
		case "US":
			us = r
		}
	}
	if ru.PctCompromised == 0 || us.PctCompromised == 0 {
		t.Fatalf("RU %+v US %+v missing from top 15", ru, us)
	}
	if ru.PctCompromised < 4*us.PctCompromised {
		t.Errorf("RU compromise rate %.1f%% should dwarf US %.1f%%",
			ru.PctCompromised, us.PctCompromised)
	}
}

func TestFig2Discovery(t *testing.T) {
	a, g := loadFixture(t)
	tl := a.DiscoveryTimeline()
	if len(tl) != 6 {
		t.Fatalf("days %d", len(tl))
	}
	day1Frac := float64(tl[0].CumulativeAll) / float64(tl[len(tl)-1].CumulativeAll)
	if day1Frac < 0.35 || day1Frac > 0.60 {
		t.Errorf("day-1 discovery fraction %v want ~0.46", day1Frac)
	}
	// Monotone cumulative, ends at the compromised population.
	for i := 1; i < len(tl); i++ {
		if tl[i].CumulativeAll < tl[i-1].CumulativeAll {
			t.Fatal("cumulative discovery not monotone")
		}
	}
	if tl[5].CumulativeAll != len(g.Truth().Compromised) {
		t.Errorf("final cumulative %d != planted %d",
			tl[5].CumulativeAll, len(g.Truth().Compromised))
	}
	if tl[5].CumulativeConsumer+tl[5].CumulativeCPS != tl[5].CumulativeAll {
		t.Error("category cumulative split inconsistent")
	}
}

func TestFig3TypeMix(t *testing.T) {
	a, _ := loadFixture(t)
	rows := a.ConsumerTypeMix()
	if len(rows) == 0 {
		t.Fatal("no type rows")
	}
	if rows[0].Type != devicedb.TypeRouter {
		t.Errorf("top type %v want router", rows[0].Type)
	}
	if rows[0].Pct < 42 || rows[0].Pct > 64 {
		t.Errorf("router pct %v want ~52.4", rows[0].Pct)
	}
	var sum float64
	for _, r := range rows {
		sum += r.Pct
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("type percentages sum %v", sum)
	}
}

func TestTables1And2ISPs(t *testing.T) {
	a, _ := loadFixture(t)
	cons := a.TopISPs(devicedb.Consumer, 5)
	if len(cons) != 5 {
		t.Fatalf("consumer ISP rows %d", len(cons))
	}
	if cons[0].Name != "JSC ER-Telecom" {
		t.Errorf("top consumer ISP %q want JSC ER-Telecom", cons[0].Name)
	}
	if cons[0].Country != "RU" {
		t.Errorf("top consumer ISP country %q", cons[0].Country)
	}

	cps := a.TopISPs(devicedb.CPS, 5)
	if len(cps) != 5 {
		t.Fatalf("CPS ISP rows %d", len(cps))
	}
	// Rostelecom should rank high among CPS (paper: #1).
	foundRostelecom := false
	for _, r := range cps {
		if r.Name == "Rostelecom" {
			foundRostelecom = true
		}
	}
	if !foundRostelecom {
		t.Errorf("Rostelecom not in CPS top 5: %+v", cps)
	}
}

func TestTable3CPSServices(t *testing.T) {
	a, _ := loadFixture(t)
	rows := a.CPSServices(10)
	if len(rows) != 10 {
		t.Fatalf("service rows %d", len(rows))
	}
	// At test scale the top ranks are noisy; Telvent must sit in the top 3
	// (paper: rank 1 at 20 %).
	telventRank := -1
	for i, r := range rows {
		if r.Service == "Telvent OASyS DNA" {
			telventRank = i
			if r.Pct < 10 || r.Pct > 32 {
				t.Errorf("Telvent pct %v want ~20", r.Pct)
			}
		}
	}
	if telventRank < 0 || telventRank > 2 {
		t.Errorf("Telvent rank %d want top 3", telventRank)
	}
	// Descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Devices > rows[i-1].Devices {
			t.Fatal("service rows not sorted")
		}
	}
}

func TestFig4ProtocolMix(t *testing.T) {
	a, _ := loadFixture(t)
	mix := a.ProtocolBreakdown()
	sum := mix.TCPCPS + mix.TCPConsumer + mix.UDPCPS + mix.UDPConsumer +
		mix.ICMPCPS + mix.ICMPConsumer
	if math.Abs(sum-100) > 0.01 {
		t.Fatalf("protocol mix sums to %v", sum)
	}
	tcp := mix.TCPCPS + mix.TCPConsumer
	udp := mix.UDPCPS + mix.UDPConsumer
	if tcp < 70 {
		t.Errorf("TCP share %v want ~85", tcp)
	}
	if udp < 4 || udp > 20 {
		t.Errorf("UDP share %v want ~10", udp)
	}
	if mix.UDPConsumer <= mix.UDPCPS {
		t.Errorf("UDP should be consumer-heavy: %v vs %v", mix.UDPConsumer, mix.UDPCPS)
	}
}

func TestFig5UDPSurfaces(t *testing.T) {
	a, _ := loadFixture(t)
	cons := a.UDPSurface(devicedb.Consumer)
	cps := a.UDPSurface(devicedb.CPS)
	if len(cons.Packets) != 143 {
		t.Fatalf("series length %d", len(cons.Packets))
	}
	sumSlice := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s
	}
	if sumSlice(cons.Packets) <= sumSlice(cps.Packets) {
		t.Errorf("consumer UDP packets %v should exceed CPS %v",
			sumSlice(cons.Packets), sumSlice(cps.Packets))
	}
	// Consumer probers reach more destinations (paper: 48K vs 14.7K).
	if sumSlice(cons.DstIPs) <= sumSlice(cps.DstIPs) {
		t.Errorf("consumer UDP destinations should exceed CPS")
	}
	// Consumer UDP: packets ~ destinations (one packet per destination).
	ratio := sumSlice(cons.Packets) / math.Max(sumSlice(cons.DstIPs), 1)
	if ratio > 1.6 {
		t.Errorf("consumer UDP packets/destinations ratio %v want ~1", ratio)
	}
	// CPS hammers fewer destinations with more packets each.
	cpsRatio := sumSlice(cps.Packets) / math.Max(sumSlice(cps.DstIPs), 1)
	if cpsRatio < 2 {
		t.Errorf("CPS UDP packets/destinations ratio %v want >> 1", cpsRatio)
	}
}

func TestTable4UDPPorts(t *testing.T) {
	a, _ := loadFixture(t)
	rows := a.TopUDPPorts(10)
	if len(rows) != 10 {
		t.Fatalf("rows %d", len(rows))
	}
	// Port 37547 (Netcore backdoor) must rank #1 with a large prober
	// population (paper: 10,115 devices).
	if rows[0].Port != 37547 {
		t.Errorf("top UDP port %d want 37547", rows[0].Port)
	}
	if rows[0].Devices < 10 {
		t.Errorf("port 37547 devices %d", rows[0].Devices)
	}
	// The top-10 cover ~10.7 % of UDP traffic; the rest is a long tail.
	var cum float64
	for _, r := range rows {
		cum += r.Pct
	}
	if cum > 45 {
		t.Errorf("top-10 UDP ports cover %v%%, want a long-tailed ~11%%", cum)
	}
}

func TestFig6CDFs(t *testing.T) {
	a, _ := loadFixture(t)
	scan := a.ScannerTotals()
	bs := a.VictimTotals()
	if len(scan) == 0 || len(bs) == 0 {
		t.Fatal("empty totals")
	}
	h := CDF(bs)
	frac := h.CumFraction()
	// Two-tailed shape: a light cohort under ~1000 packets (the paper has
	// half under 170; at test scale the 5 scripted event victims dominate
	// the tiny census, so only the existence of the cohort is asserted)
	// and a heavy cohort above 10K.
	if frac[3] < 0.1 {
		t.Errorf("victims <=1000 pkts fraction %v, want a light cohort", frac[3])
	}
	if frac[4] > 0.999 {
		t.Errorf("no victims above 10K packets")
	}
}

func TestFig7SpikesAttributed(t *testing.T) {
	a, g := loadFixture(t)
	spikes := a.DetectDoSSpikes(8)
	if len(spikes) < 3 {
		t.Fatalf("detected %d spikes, want >= 3 scripted episodes", len(spikes))
	}
	truth := g.Truth()
	// Every scripted event hour should fall inside some detected spike,
	// and the attributed device must be the planted victim.
	events := map[string][]int{
		"cn-ethip-1": {6, 7, 8, 53, 54, 55, 56},
		"cn-ethip-2": {99, 127},
	}
	for name, hours := range events {
		wantID := truth.EventVictims[name]
		for _, h := range hours {
			found := false
			for _, sp := range spikes {
				if h >= sp.StartHour && h <= sp.EndHour {
					found = true
					if sp.TopDevice != wantID {
						t.Errorf("spike %d-%d attributed to %d want %d (%s)",
							sp.StartHour, sp.EndHour, sp.TopDevice, wantID, name)
					}
					if sp.TopShare < 0.70 {
						t.Errorf("spike %d-%d top share %v want ~1 (single victim)",
							sp.StartHour, sp.EndHour, sp.TopShare)
					}
				}
			}
			if !found {
				t.Errorf("event %s hour %d not inside any detected spike", name, h)
			}
		}
	}
}

func TestFig8VictimCountries(t *testing.T) {
	a, _ := loadFixture(t)
	byVictims := a.VictimsByCountry(15, false)
	if len(byVictims) == 0 {
		t.Fatal("no victim countries")
	}
	if byVictims[0].Code != "CN" {
		t.Errorf("most victims in %s want CN", byVictims[0].Code)
	}
	byPackets := a.VictimsByCountry(15, true)
	if byPackets[0].Code != "CN" {
		t.Errorf("most backscatter from %s want CN (paper: 52%%)", byPackets[0].Code)
	}
	var total, cn uint64
	for _, r := range a.VictimsByCountry(0, true) {
		total += r.Packets
		if r.Code == "CN" {
			cn = r.Packets
		}
	}
	// At test scale the few baseline victims barely dilute the scripted CN
	// events, so the share runs above the paper's 52 %.
	share := float64(cn) / float64(total)
	if share < 0.30 || share > 0.90 {
		t.Errorf("CN backscatter share %v want ~0.5-0.8", share)
	}
}

func TestFig9ScanSurfaces(t *testing.T) {
	a, _ := loadFixture(t)
	cons := a.ScanSurface(devicedb.Consumer)
	cps := a.ScanSurface(devicedb.CPS)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s
	}
	// Consumer scanning volume exceeds CPS (382K vs 318K per hour).
	if sum(cons.Packets) <= sum(cps.Packets) {
		t.Errorf("consumer scan packets %v should exceed CPS %v",
			sum(cons.Packets), sum(cps.Packets))
	}
	// CPS scans a wider port range per hour (paper: 576 vs 246)...
	meanPorts := func(s HourlySurface) float64 {
		return sum(s.DstPorts) / float64(len(s.DstPorts))
	}
	if meanPorts(cps) <= meanPorts(cons)*0.8 {
		t.Errorf("CPS mean hourly ports %v not above consumer %v",
			meanPorts(cps), meanPorts(cons))
	}
}

func TestFig9PortSweepInvestigation(t *testing.T) {
	a, g := loadFixture(t)
	finding, ok := a.WidestPortSweep()
	if !ok {
		t.Fatal("no port sweep found")
	}
	spikeHour := g.Scenario().TCPScan.PortSpikeHour
	if finding.Hour != spikeHour {
		t.Errorf("widest sweep at hour %d want %d", finding.Hour, spikeHour)
	}
	if finding.Ports < 5000 {
		t.Errorf("sweep width %d want ~10,249", finding.Ports)
	}
	d := a.inv.At(finding.Device)
	if d.Type != devicedb.TypeIPCamera {
		t.Errorf("sweeping device is %v, want ip-camera", d.Type)
	}
}

func TestTable5ScanServices(t *testing.T) {
	a, _ := loadFixture(t)
	rows := a.TopScanServices(DefaultScanServices())
	if len(rows) != 14 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Service != "Telnet" {
		t.Errorf("top scanned service %q want Telnet", rows[0].Service)
	}
	if rows[0].Pct < 35 || rows[0].Pct > 65 {
		t.Errorf("Telnet share %v want ~50", rows[0].Pct)
	}
	byName := make(map[string]ScanServiceRow, len(rows))
	for _, r := range rows {
		byName[r.Service] = r
	}
	// Realm splits: HTTP and Kerberos consumer-heavy, SSH CPS-heavy.
	if r := byName["HTTP"]; r.ConsumerPct < 80 {
		t.Errorf("HTTP consumer pct %v want ~94.5", r.ConsumerPct)
	}
	if r := byName["Kerberos"]; r.ConsumerPct < 85 {
		t.Errorf("Kerberos consumer pct %v want ~99", r.ConsumerPct)
	}
	if r := byName["SSH"]; r.ConsumerPct > 60 {
		t.Errorf("SSH consumer pct %v want ~33.7", r.ConsumerPct)
	}
	// BackroomNet: a single CPS device (paper's BACnet box).
	if r := byName["BackroomNet"]; r.CPSDevices != 1 || r.ConsumerDevices != 0 {
		t.Errorf("BackroomNet devices consumer=%d cps=%d want 0/1",
			r.ConsumerDevices, r.CPSDevices)
	}
}

func TestFig10ServiceSeries(t *testing.T) {
	a, g := loadFixture(t)
	defs := DefaultScanServices()
	var telnet, ssh, backroom ScanServiceDef
	for _, d := range defs {
		switch d.Name {
		case "Telnet":
			telnet = d
		case "SSH":
			ssh = d
		case "BackroomNet":
			backroom = d
		}
	}
	// Telnet dominates throughout.
	telnetSeries := a.ServiceHourlySeries(telnet)
	if len(telnetSeries) != 143 {
		t.Fatalf("series length %d", len(telnetSeries))
	}
	// SSH spikes at the scripted hours.
	sshSeries := a.ServiceHourlySeries(ssh)
	base := 0.0
	for _, h := range []int{40, 41, 42, 43} {
		base += sshSeries[h]
	}
	base /= 4
	for _, h := range g.Scenario().TCPScan.SSHSpike.Hours {
		if sshSeries[h] < 5*math.Max(base, 1) {
			t.Errorf("SSH at spike hour %d = %v, baseline %v: no surge", h, sshSeries[h], base)
		}
	}
	// BackroomNet: silent before 113, heavy after.
	brSeries := a.ServiceHourlySeries(backroom)
	var before, after float64
	for h := 0; h < 113; h++ {
		before += brSeries[h]
	}
	for h := 113; h < 143; h++ {
		after += brSeries[h]
	}
	if after < 100*math.Max(before, 1) {
		t.Errorf("BackroomNet before=%v after=%v: no onset at 113", before, after)
	}
}

func TestStatTestBattery(t *testing.T) {
	a, _ := loadFixture(t)
	tests, err := a.RunStatTests(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Backscatter: CPS >> consumer (paper p < 0.0001, Z = -5.95).
	if tests.BackscatterCPSvsConsumer.P > 0.01 {
		t.Errorf("backscatter U-test p = %v want < 0.01", tests.BackscatterCPSvsConsumer.P)
	}
	if tests.BackscatterCPSvsConsumer.Z >= 0 {
		t.Errorf("backscatter Z = %v want negative (consumer < CPS)",
			tests.BackscatterCPSvsConsumer.Z)
	}
	// Consumer UDP ports vs IPs strongly correlated (paper r = 0.95).
	if tests.ConsumerUDPPortsVsIPs.R < 0.6 {
		t.Errorf("consumer UDP ports/IPs r = %v want ~0.95", tests.ConsumerUDPPortsVsIPs.R)
	}
	if tests.ConsumerUDPPortsVsIPs.P > 0.001 {
		t.Errorf("consumer UDP ports/IPs p = %v", tests.ConsumerUDPPortsVsIPs.P)
	}
}

func TestBackscatterSummary(t *testing.T) {
	a, g := loadFixture(t)
	s := a.Backscatter()
	if s.Victims == 0 {
		t.Fatal("no victims")
	}
	planted := len(g.Truth().Victims)
	if s.Victims < planted*8/10 || s.Victims > planted {
		t.Errorf("victims %d planted %d", s.Victims, planted)
	}
	// CPS dominates backscatter volume (paper: 73 %).
	if s.CPSPacketShare < 50 {
		t.Errorf("CPS backscatter share %v want ~73", s.CPSPacketShare)
	}
	if s.PctOfIoTTraffic < 2 || s.PctOfIoTTraffic > 25 {
		t.Errorf("backscatter traffic share %v want ~8.2", s.PctOfIoTTraffic)
	}
}

func TestPerDeviceTotalsSorted(t *testing.T) {
	a, _ := loadFixture(t)
	totals := a.PerDeviceTotals()
	for i := 1; i < len(totals); i++ {
		if totals[i-1] > totals[i] {
			t.Fatal("totals not sorted")
		}
	}
	if len(totals) != len(a.res.Devices) {
		t.Fatal("totals length mismatch")
	}
}

func TestClassPacketConservation(t *testing.T) {
	a, _ := loadFixture(t)
	var byClass uint64
	for _, cls := range classify.Classes() {
		byClass += a.res.ClassPackets(cls, 0)
	}
	if total := a.res.TotalIoTPackets(); byClass != total {
		t.Fatalf("class packets %d != total %d", byClass, total)
	}
	perDevice := uint64(0)
	for _, ds := range a.res.Devices {
		perDevice += ds.TotalPackets()
	}
	if perDevice != a.res.TotalIoTPackets() {
		t.Fatalf("per-device sum %d != hourly sum %d", perDevice, a.res.TotalIoTPackets())
	}
}
