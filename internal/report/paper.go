package report

import (
	"fmt"
	"io"
	"strconv"

	"iotscope/internal/analysis"
	"iotscope/internal/classify"
	"iotscope/internal/core"
	"iotscope/internal/devicedb"
)

const sparkWidth = 72

// Fig1a renders the deployment-by-country figure.
func Fig1a(w io.Writer, an *analysis.Analyzer) error {
	rows, cum := an.DeployedByCountry(15)
	t := Table{
		Title:   "Fig. 1a — Top 15 countries hosting deployed IoT devices",
		Headers: []string{"Country", "Consumer", "CPS", "Total"},
		Footer:  fmt.Sprintf("cumulative share of inventory: %s (paper: 69.3%%)", Pct(100*cum)),
	}
	for _, r := range rows {
		t.AddRow(r.Code, CommaInt(r.Consumer), CommaInt(r.CPS), CommaInt(r.Total()))
	}
	return t.Render(w)
}

// Fig1b renders the compromised-by-country figure.
func Fig1b(w io.Writer, an *analysis.Analyzer) error {
	rows := an.CompromisedByCountry(15)
	t := Table{
		Title:   "Fig. 1b — Top 15 countries hosting compromised IoT devices",
		Headers: []string{"Country", "Consumer", "CPS", "Total", "% compromised"},
	}
	for _, r := range rows {
		t.AddRow(r.Code, CommaInt(r.Consumer), CommaInt(r.CPS),
			CommaInt(r.Total()), Pct(r.PctCompromised))
	}
	return t.Render(w)
}

// Fig2 renders the cumulative discovery timeline.
func Fig2(w io.Writer, an *analysis.Analyzer) error {
	t := Table{
		Title:   "Fig. 2 — Cumulative daily discovered compromised IoT devices",
		Headers: []string{"Day", "New", "Cumulative", "Consumer", "CPS"},
	}
	for _, d := range an.DiscoveryTimeline() {
		t.AddRow(strconv.Itoa(d.Day+1), CommaInt(d.NewDevices),
			CommaInt(d.CumulativeAll), CommaInt(d.CumulativeConsumer), CommaInt(d.CumulativeCPS))
	}
	return t.Render(w)
}

// Fig3 renders the compromised consumer type mix.
func Fig3(w io.Writer, an *analysis.Analyzer) error {
	t := Table{
		Title:   "Fig. 3 — Compromised consumer IoT devices by type",
		Headers: []string{"Type", "Devices", "Share"},
	}
	for _, r := range an.ConsumerTypeMix() {
		t.AddRow(r.Type.String(), CommaInt(r.Devices), Pct(r.Pct))
	}
	return t.Render(w)
}

// Table1 renders the top consumer ISPs.
func Table1(w io.Writer, an *analysis.Analyzer) error {
	return ispTable(w, an, devicedb.Consumer,
		"Table I — Top 5 ISPs hosting compromised consumer IoT devices")
}

// Table2 renders the top CPS ISPs.
func Table2(w io.Writer, an *analysis.Analyzer) error {
	return ispTable(w, an, devicedb.CPS,
		"Table II — Top 5 ISPs hosting compromised CPS IoT devices")
}

func ispTable(w io.Writer, an *analysis.Analyzer, cat devicedb.Category, title string) error {
	t := Table{
		Title:   title,
		Headers: []string{"ISP", "Country", "Devices", "%"},
	}
	for _, r := range an.TopISPs(cat, 5) {
		t.AddRow(r.Name, r.Country, CommaInt(r.Devices), Pct(r.Pct))
	}
	return t.Render(w)
}

// Table3 renders the compromised CPS services.
func Table3(w io.Writer, an *analysis.Analyzer) error {
	t := Table{
		Title:   "Table III — Top 10 CPS realms hosting compromised IoT devices",
		Headers: []string{"Service/Protocol", "Devices", "%"},
	}
	for _, r := range an.CPSServices(10) {
		t.AddRow(r.Service, CommaInt(r.Devices), Pct(r.Pct))
	}
	return t.Render(w)
}

// Fig4 renders the protocol mix.
func Fig4(w io.Writer, an *analysis.Analyzer) error {
	mix := an.ProtocolBreakdown()
	t := Table{
		Title:   "Fig. 4 — Protocol share of IoT packets (percent of all IoT traffic)",
		Headers: []string{"Protocol", "CPS", "Consumer"},
	}
	t.AddRow("TCP", Pct(mix.TCPCPS), Pct(mix.TCPConsumer))
	t.AddRow("UDP", Pct(mix.UDPCPS), Pct(mix.UDPConsumer))
	t.AddRow("ICMP", Pct(mix.ICMPCPS), Pct(mix.ICMPConsumer))
	return t.Render(w)
}

// Fig5 renders the hourly UDP surfaces.
func Fig5(w io.Writer, an *analysis.Analyzer) error {
	if _, err := fmt.Fprintln(w, "Fig. 5 — Hourly UDP probing surface"); err != nil {
		return err
	}
	for _, cat := range []devicedb.Category{devicedb.CPS, devicedb.Consumer} {
		s := an.UDPSurface(cat)
		prefix := "(a) CPS      "
		if cat == devicedb.Consumer {
			prefix = "(b) consumer "
		}
		if err := Series(w, prefix+"packets", s.Packets, sparkWidth); err != nil {
			return err
		}
		if err := Series(w, prefix+"dst IPs", s.DstIPs, sparkWidth); err != nil {
			return err
		}
		if err := Series(w, prefix+"dst ports", s.DstPorts, sparkWidth); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Table4 renders the top UDP ports.
func Table4(w io.Writer, an *analysis.Analyzer) error {
	t := Table{
		Title:   "Table IV — Top 10 targeted UDP protocols/ports",
		Headers: []string{"Port", "Packets", "%", "Devices"},
	}
	for _, r := range an.TopUDPPorts(10) {
		t.AddRow(strconv.Itoa(int(r.Port)), Comma(r.Packets), Pct(r.Pct), CommaInt(r.Devices))
	}
	return t.Render(w)
}

// Fig6 renders the scanning/backscatter per-device CDFs.
func Fig6(w io.Writer, an *analysis.Analyzer) error {
	if _, err := fmt.Fprintln(w, "Fig. 6 — CDF of per-device scanning and backscatter packets"); err != nil {
		return err
	}
	t := Table{
		Headers: []string{"<= packets", "scanning CDF", "backscatter CDF"},
	}
	scan := analysis.CDF(an.ScannerTotals())
	bs := analysis.CDF(an.VictimTotals())
	scanFrac := scan.CumFraction()
	bsFrac := bs.CumFraction()
	for i, edge := range scan.Edges {
		t.AddRow(Comma(uint64(edge)),
			fmt.Sprintf("%.3f", scanFrac[i]), fmt.Sprintf("%.3f", bsFrac[i]))
	}
	return t.Render(w)
}

// Fig7 renders the backscatter series and the spike attribution that
// /v1/spikes serves at its default threshold.
func Fig7(w io.Writer, res *core.Results) error {
	if _, err := fmt.Fprintln(w, "Fig. 7 — Hourly backscatter packets and DoS spike attribution"); err != nil {
		return err
	}
	cps := res.Correlate.HourlyClassSeries(classify.Backscatter, devicedb.CPS)
	cons := res.Correlate.HourlyClassSeries(classify.Backscatter, devicedb.Consumer)
	if err := Series(w, "CPS backscatter", cps, sparkWidth); err != nil {
		return err
	}
	if err := Series(w, "consumer backscatter", cons, sparkWidth); err != nil {
		return err
	}
	t := Table{
		Title:   "Detected DoS episodes (single-victim attribution)",
		Headers: []string{"Hours", "Packets", "Victim device", "Country", "Realm", "Share"},
	}
	for _, sp := range res.Views.DoSSpikes(8) {
		t.AddRow(fmt.Sprintf("%d-%d", sp.StartHour, sp.EndHour), Comma(sp.Packets),
			strconv.Itoa(sp.Victim), sp.Country, sp.Category,
			fmt.Sprintf("%.0f%%", 100*sp.Share))
	}
	return t.Render(w)
}

// Fig8 renders victim countries.
func Fig8(w io.Writer, an *analysis.Analyzer) error {
	t := Table{
		Title:   "Fig. 8a — Top 15 countries by DoS IoT victims",
		Headers: []string{"Country", "Victims", "Consumer", "CPS"},
	}
	for _, r := range an.VictimsByCountry(15, false) {
		t.AddRow(r.Code, CommaInt(r.Victims), CommaInt(r.ConsumerVictims), CommaInt(r.CPSVictims))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := Table{
		Title:   "Fig. 8b — Top 15 countries by backscatter packets",
		Headers: []string{"Country", "Packets", "Victims"},
	}
	for _, r := range an.VictimsByCountry(15, true) {
		t2.AddRow(r.Code, Comma(r.Packets), CommaInt(r.Victims))
	}
	return t2.Render(w)
}

// Fig9 renders the hourly TCP scanning surfaces plus the port-sweep
// investigation.
func Fig9(w io.Writer, res *core.Results, ds *core.Dataset) error {
	an := res.Analyzer
	if _, err := fmt.Fprintln(w, "Fig. 9 — Hourly TCP scanning surface"); err != nil {
		return err
	}
	for _, cat := range []devicedb.Category{devicedb.CPS, devicedb.Consumer} {
		s := an.ScanSurface(cat)
		prefix := "(a) CPS      "
		if cat == devicedb.Consumer {
			prefix = "(b) consumer "
		}
		if err := Series(w, prefix+"packets", s.Packets, sparkWidth); err != nil {
			return err
		}
		if err := Series(w, prefix+"dst IPs", s.DstIPs, sparkWidth); err != nil {
			return err
		}
		if err := Series(w, prefix+"dst ports", s.DstPorts, sparkWidth); err != nil {
			return err
		}
	}
	if finding, ok := an.WidestPortSweep(); ok {
		d := ds.Inventory.At(finding.Device)
		fmt.Fprintf(w, "widest single-hour port sweep: device %d (%s, %s) at hour %d: %s ports on %s destinations\n",
			finding.Device, d.Type, d.Country, finding.Hour,
			CommaInt(finding.Ports), CommaInt(finding.Dests))
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Table5 renders the top scanned services.
func Table5(w io.Writer, an *analysis.Analyzer) error {
	t := Table{
		Title:   "Table V — Top 14 protocols/ports by TCP scanning packets",
		Headers: []string{"Service", "Packets", "%", "Cons %", "Cons IP", "CPS %", "CPS IP"},
	}
	for _, r := range an.TopScanServices(analysis.DefaultScanServices()) {
		t.AddRow(r.Service, Comma(r.Packets), Pct(r.Pct),
			Pct(r.ConsumerPct), CommaInt(r.ConsumerDevices),
			Pct(r.CPSPct), CommaInt(r.CPSDevices))
	}
	return t.Render(w)
}

// Fig10 renders the per-service scanning series.
func Fig10(w io.Writer, an *analysis.Analyzer) error {
	if _, err := fmt.Fprintln(w, "Fig. 10 — Hourly TCP scanning by top service"); err != nil {
		return err
	}
	for _, def := range analysis.DefaultScanServices()[:5] {
		if err := Series(w, def.Name, an.ServiceHourlySeries(def), sparkWidth); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Fig11 renders the explored-vs-flagged CDF.
func Fig11(w io.Writer, res *core.Results) error {
	inv := res.Threat
	if _, err := fmt.Fprintf(w,
		"Fig. 11 — CDF of packets: explored devices (N=%d) vs threat-flagged (N=%d)\n",
		inv.Explored, len(inv.Flagged)); err != nil {
		return err
	}
	t := Table{Headers: []string{"<= packets", "explored CDF", "flagged CDF"}}
	all := analysis.CDF(inv.ExploredTotals)
	flagged := analysis.CDF(inv.FlaggedTotals)
	af, ff := all.CumFraction(), flagged.CumFraction()
	for i, edge := range all.Edges {
		t.AddRow(Comma(uint64(edge)), fmt.Sprintf("%.3f", af[i]), fmt.Sprintf("%.3f", ff[i]))
	}
	return t.Render(w)
}

// Table6 renders the threat-category summary.
func Table6(w io.Writer, res *core.Results) error {
	t := Table{
		Title:   "Table VI — Identified threats (not mutually exclusive)",
		Headers: []string{"Threat category", "IoT devices", "%"},
		Footer: fmt.Sprintf("flagged %d of %d explored devices (%.1f%%)",
			len(res.Threat.Flagged), res.Threat.Explored,
			100*float64(len(res.Threat.Flagged))/maxF(float64(res.Threat.Explored), 1)),
	}
	for _, r := range res.Threat.ByCategory {
		t.AddRow(r.Category.Description(), CommaInt(r.Devices), Pct(r.Pct))
	}
	return t.Render(w)
}

// Table7 renders the malware families.
func Table7(w io.Writer, res *core.Results) error {
	t := Table{
		Title:   "Table VII — Identified malware families exploiting IoT devices",
		Headers: []string{"Malware family", "Hashes"},
		Footer: fmt.Sprintf("%d unique hashes, %d domains, %d matched devices",
			len(res.Malware.Hashes), len(res.Malware.Domains), len(res.Malware.MatchedDevices)),
	}
	for _, fam := range res.Malware.Families {
		t.AddRow(fam, CommaInt(res.Malware.PerFamilyHashes[fam]))
	}
	return t.Render(w)
}

// Headline renders the Sec. III-B / Sec. IV headline numbers and the
// statistical battery.
func Headline(w io.Writer, res *core.Results) error {
	s := res.Summary
	bs := res.Analyzer.Backscatter()
	fmt.Fprintf(w, "Headline inference (Sec. III-B)\n")
	fmt.Fprintf(w, "  compromised IoT devices: %s (consumer %s / CPS %s) across %d countries\n",
		CommaInt(s.Total), CommaInt(s.Consumer), CommaInt(s.CPS), s.Countries)
	fmt.Fprintf(w, "  total IoT packets: %s; mean daily active devices: %s\n",
		Comma(s.PacketsTotal), CommaInt(int(s.MeanDailyActiveDevices)))
	fmt.Fprintf(w, "  DoS victims: %s (consumer %s / CPS %s); backscatter %s pkts (%.1f%% of IoT traffic, %.0f%% from CPS)\n",
		CommaInt(bs.Victims), CommaInt(bs.ConsumerVictims), CommaInt(bs.CPSVictims),
		Comma(bs.Packets), bs.PctOfIoTTraffic, bs.CPSPacketShare)
	st := res.StatTests
	fmt.Fprintf(w, "Statistical battery (Sec. IV)\n")
	fmt.Fprintf(w, "  Mann-Whitney total pkts/hour consumer-vs-CPS:      U=%.0f Z=%+.2f p=%.2g\n",
		st.TotalCPSvsConsumer.U, st.TotalCPSvsConsumer.Z, st.TotalCPSvsConsumer.P)
	fmt.Fprintf(w, "  Mann-Whitney backscatter/hour consumer-vs-CPS:     U=%.0f Z=%+.2f p=%.2g (paper: U=6061, Z=-5.95)\n",
		st.BackscatterCPSvsConsumer.U, st.BackscatterCPSvsConsumer.Z, st.BackscatterCPSvsConsumer.P)
	fmt.Fprintf(w, "  Pearson consumer UDP ports-vs-IPs:                 r=%.3f p=%.2g (paper: r=0.95)\n",
		st.ConsumerUDPPortsVsIPs.R, st.ConsumerUDPPortsVsIPs.P)
	fmt.Fprintf(w, "  Pearson scanners-vs-scan packets:                  r=%.3f p=%.2g (paper: r~0, p>0.05)\n\n",
		st.ScannersVsScanPackets.R, st.ScannersVsScanPackets.P)
	return nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// WriteAll renders the full paper reproduction.
func WriteAll(w io.Writer, res *core.Results, ds *core.Dataset) error {
	if err := Headline(w, res); err != nil {
		return err
	}
	an := res.Analyzer
	steps := []func() error{
		func() error { return Fig1a(w, an) },
		func() error { return Fig1b(w, an) },
		func() error { return Fig2(w, an) },
		func() error { return Fig3(w, an) },
		func() error { return Table1(w, an) },
		func() error { return Table2(w, an) },
		func() error { return Table3(w, an) },
		func() error { return Fig4(w, an) },
		func() error { return Fig5(w, an) },
		func() error { return Table4(w, an) },
		func() error { return Fig6(w, an) },
		func() error { return Fig7(w, res) },
		func() error { return Fig8(w, an) },
		func() error { return Fig9(w, res, ds) },
		func() error { return Table5(w, an) },
		func() error { return Fig10(w, an) },
		func() error { return Fig11(w, res) },
		func() error { return Table6(w, res) },
		func() error { return Table7(w, res) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
