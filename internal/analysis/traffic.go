package analysis

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/stats"
)

// HourlySurface is one Fig. 5 / Fig. 9 panel: per-hour packets, unique
// destination addresses, and unique destination ports for one realm.
type HourlySurface struct {
	Category devicedb.Category
	Packets  []float64
	DstIPs   []float64
	DstPorts []float64
	Devices  []float64
}

// UDPSurface reproduces Fig. 5 for one realm.
func (a *Analyzer) UDPSurface(cat devicedb.Category) HourlySurface {
	return a.surface(cat, classify.UDP)
}

// ScanSurface reproduces Fig. 9 for one realm.
func (a *Analyzer) ScanSurface(cat devicedb.Category) HourlySurface {
	return a.surface(cat, classify.ScanTCP)
}

func (a *Analyzer) surface(cat devicedb.Category, cls classify.Class) HourlySurface {
	n := a.res.Hours
	s := HourlySurface{
		Category: cat,
		Packets:  make([]float64, n),
		DstIPs:   make([]float64, n),
		DstPorts: make([]float64, n),
		Devices:  make([]float64, n),
	}
	for i := range a.res.Hourly {
		ch := a.res.Hourly[i].Cat(cat)
		s.Packets[i] = float64(ch.Packets[cls.Index()])
		switch cls {
		case classify.UDP:
			s.DstIPs[i] = float64(ch.UDPDstIPs)
			s.DstPorts[i] = float64(ch.UDPDstPorts)
			s.Devices[i] = float64(ch.UDPDevices)
		case classify.ScanTCP:
			s.DstIPs[i] = float64(ch.ScanDstIPs)
			s.DstPorts[i] = float64(ch.ScanDstPorts)
			s.Devices[i] = float64(ch.ScanDevices)
		}
	}
	return s
}

// UDPPortRow is one row of Table IV.
type UDPPortRow struct {
	Port    uint16
	Packets uint64
	Pct     float64
	Devices int
}

// TopUDPPorts reproduces Table IV.
func (a *Analyzer) TopUDPPorts(n int) []UDPPortRow {
	var totalUDP uint64
	for _, pa := range a.res.UDPPorts {
		totalUDP += pa.Packets
	}
	rows := make([]UDPPortRow, 0, len(a.res.UDPPorts))
	for port, pa := range a.res.UDPPorts {
		pct := 0.0
		if totalUDP > 0 {
			pct = 100 * float64(pa.Packets) / float64(totalUDP)
		}
		rows = append(rows, UDPPortRow{
			Port: port, Packets: pa.Packets, Pct: pct, Devices: len(pa.Devices),
		})
	}
	slices.SortFunc(rows, func(x, y UDPPortRow) int {
		if x.Packets != y.Packets {
			return cmp.Compare(y.Packets, x.Packets)
		}
		return cmp.Compare(x.Port, y.Port)
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// ScanServiceDef labels a scanned service by its port set, mirroring the
// paper's Table V groupings.
type ScanServiceDef struct {
	Name  string
	Ports []uint16
}

// DefaultScanServices lists the Table V services.
func DefaultScanServices() []ScanServiceDef {
	return []ScanServiceDef{
		{"Telnet", []uint16{23, 2323, 23231}},
		{"HTTP", []uint16{80, 8080, 81}},
		{"SSH", []uint16{22}},
		{"BackroomNet", []uint16{3387}},
		{"CWMP", []uint16{7547}},
		{"WSDAPI-S", []uint16{5358}},
		{"MSSQLServer", []uint16{1433}},
		{"Kerberos", []uint16{88}},
		{"MS DS", []uint16{445}},
		{"EthernetIP-IO", []uint16{2222}},
		{"iRDMI", []uint16{8000}},
		{"Unassigned-21677", []uint16{21677}},
		{"RDP", []uint16{3389}},
		{"FTP", []uint16{21}},
	}
}

// ScanServiceRow is one row of Table V.
type ScanServiceRow struct {
	Service         string
	Ports           []uint16
	Packets         uint64
	Pct             float64 // of all TCP scanning packets
	ConsumerPct     float64 // of the service's packets
	ConsumerDevices int
	CPSDevices      int
	CPSPct          float64
}

// TopScanServices reproduces Table V over the given service definitions.
func (a *Analyzer) TopScanServices(defs []ScanServiceDef) []ScanServiceRow {
	totalScan := a.res.ClassPackets(classify.ScanTCP, 0)
	rows := make([]ScanServiceRow, 0, len(defs))
	for _, def := range defs {
		row := ScanServiceRow{Service: def.Name, Ports: def.Ports}
		consDevs := make(map[int]struct{})
		cpsDevs := make(map[int]struct{})
		var consPkts uint64
		for _, port := range def.Ports {
			pa := a.res.TCPScanPorts[port]
			if pa == nil {
				continue
			}
			row.Packets += pa.Packets
			consPkts += pa.PacketsConsumer
			for _, id := range pa.DevicesConsumer {
				consDevs[int(id)] = struct{}{}
			}
			for _, id := range pa.DevicesCPS {
				cpsDevs[int(id)] = struct{}{}
			}
		}
		row.ConsumerDevices = len(consDevs)
		row.CPSDevices = len(cpsDevs)
		if totalScan > 0 {
			row.Pct = 100 * float64(row.Packets) / float64(totalScan)
		}
		if row.Packets > 0 {
			row.ConsumerPct = 100 * float64(consPkts) / float64(row.Packets)
			row.CPSPct = 100 - row.ConsumerPct
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Packets != rows[j].Packets {
			return rows[i].Packets > rows[j].Packets
		}
		return rows[i].Service < rows[j].Service
	})
	return rows
}

// ServiceHourlySeries reproduces Fig. 10: per-hour TCP scanning packets for
// one service definition.
func (a *Analyzer) ServiceHourlySeries(def ScanServiceDef) []float64 {
	out := make([]float64, a.res.Hours)
	for _, port := range def.Ports {
		for h := 0; h < a.res.Hours; h++ {
			ph := correlate.PortHour{Port: port, Hour: uint16(h)}
			out[h] += float64(a.res.TCPPortHour[ph])
		}
	}
	return out
}

// BackscatterSummary is the Sec. IV-B headline.
type BackscatterSummary struct {
	Victims         int
	ConsumerVictims int
	CPSVictims      int
	Packets         uint64
	CPSPacketShare  float64
	PctOfIoTTraffic float64
	VictimsOver10K  int
	VictimsUnder170 int
}

// Backscatter computes the Sec. IV-B summary.
func (a *Analyzer) Backscatter() BackscatterSummary {
	var s BackscatterSummary
	var cpsPkts uint64
	for id, ds := range a.res.Devices {
		bs := ds.Packets[classify.Backscatter.Index()]
		if bs == 0 {
			continue
		}
		s.Victims++
		s.Packets += bs
		if a.inv.At(id).Category == devicedb.CPS {
			s.CPSVictims++
			cpsPkts += bs
		} else {
			s.ConsumerVictims++
		}
		if bs >= 10000 {
			s.VictimsOver10K++
		}
		if bs < 170 {
			s.VictimsUnder170++
		}
	}
	if s.Packets > 0 {
		s.CPSPacketShare = 100 * float64(cpsPkts) / float64(s.Packets)
	}
	if total := a.res.TotalIoTPackets(); total > 0 {
		s.PctOfIoTTraffic = 100 * float64(s.Packets) / float64(total)
	}
	return s
}

// VictimTotals returns per-victim backscatter totals (Fig. 6 input).
func (a *Analyzer) VictimTotals() []float64 {
	var out []float64
	for _, ds := range a.res.Devices {
		if bs := ds.Packets[classify.Backscatter.Index()]; bs > 0 {
			out = append(out, float64(bs))
		}
	}
	sort.Float64s(out)
	return out
}

// ScannerTotals returns per-device scanning totals (Fig. 6 input).
func (a *Analyzer) ScannerTotals() []float64 {
	var out []float64
	for _, ds := range a.res.Devices {
		scan := ds.Packets[classify.ScanTCP.Index()] + ds.Packets[classify.ScanICMP.Index()]
		if scan > 0 {
			out = append(out, float64(scan))
		}
	}
	sort.Float64s(out)
	return out
}

// DoSSpike is one detected DoS episode (Sec. IV-B1).
type DoSSpike struct {
	StartHour int
	EndHour   int // inclusive
	Packets   uint64
	TopDevice int     // device ID dominating the spike
	TopShare  float64 // its share of the spike packets
}

// DetectDoSSpikes finds hours whose backscatter exceeds threshold times the
// median positive hour, groups consecutive hours into episodes, and
// attributes each to its dominant victim — the paper's investigation that a
// single device generates almost all packets during every spike.
func (a *Analyzer) DetectDoSSpikes(threshold float64) []DoSSpike {
	if threshold <= 1 {
		threshold = 5
	}
	series := a.res.HourlyClassSeries(classify.Backscatter, 0)
	var positive []float64
	for _, v := range series {
		if v > 0 {
			positive = append(positive, v)
		}
	}
	if len(positive) == 0 {
		return nil
	}
	median := stats.Quantile(positive, 0.5)
	if median <= 0 {
		median = 1
	}
	cut := median * threshold

	var spikes []DoSSpike
	inSpike := false
	for h := 0; h <= len(series); h++ {
		hot := h < len(series) && series[h] > cut
		switch {
		case hot && !inSpike:
			spikes = append(spikes, DoSSpike{StartHour: h, EndHour: h})
			inSpike = true
		case hot && inSpike:
			spikes[len(spikes)-1].EndHour = h
		case !hot && inSpike:
			inSpike = false
		}
	}
	// Attribute each spike to its dominant victim.
	for i := range spikes {
		sp := &spikes[i]
		perDevice := make(map[int]uint64)
		for id, ds := range a.res.Devices {
			for h := sp.StartHour; h <= sp.EndHour; h++ {
				if v := ds.BackscatterHourly[h]; v > 0 {
					perDevice[id] += v
					sp.Packets += v
				}
			}
		}
		var bestID int
		var bestPkts uint64
		for id, v := range perDevice {
			if v > bestPkts || (v == bestPkts && id < bestID) {
				bestID, bestPkts = id, v
			}
		}
		sp.TopDevice = bestID
		if sp.Packets > 0 {
			sp.TopShare = float64(bestPkts) / float64(sp.Packets)
		}
	}
	return spikes
}

// VictimCountryRow is one Fig. 8 row.
type VictimCountryRow struct {
	Code            string
	Victims         int
	ConsumerVictims int
	CPSVictims      int
	Packets         uint64
}

// VictimsByCountry reproduces Figs. 8a/8b: victims and backscatter packets
// per country, ordered by the given key ("victims" or "packets").
func (a *Analyzer) VictimsByCountry(n int, byPackets bool) []VictimCountryRow {
	counts := make(map[string]*VictimCountryRow)
	for id, ds := range a.res.Devices {
		bs := ds.Packets[classify.Backscatter.Index()]
		if bs == 0 {
			continue
		}
		d := a.inv.At(id)
		row := counts[d.Country]
		if row == nil {
			row = &VictimCountryRow{Code: d.Country}
			counts[d.Country] = row
		}
		row.Victims++
		row.Packets += bs
		if d.Category == devicedb.Consumer {
			row.ConsumerVictims++
		} else {
			row.CPSVictims++
		}
	}
	rows := make([]VictimCountryRow, 0, len(counts))
	for _, r := range counts {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if byPackets {
			if rows[i].Packets != rows[j].Packets {
				return rows[i].Packets > rows[j].Packets
			}
		} else if rows[i].Victims != rows[j].Victims {
			return rows[i].Victims > rows[j].Victims
		}
		return rows[i].Code < rows[j].Code
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// PortSweepFinding is the Sec. IV-C interval-119 investigation output.
type PortSweepFinding struct {
	Device int
	Hour   int
	Ports  int
	Dests  int
}

// WidestPortSweep finds the device with the widest single-hour TCP port
// sweep (the paper: an IP camera sweeping 10,249 ports on 55 destinations
// at interval 119).
func (a *Analyzer) WidestPortSweep() (PortSweepFinding, bool) {
	var best PortSweepFinding
	found := false
	for id, ds := range a.res.Devices {
		if ds.MaxScanPorts > best.Ports ||
			(ds.MaxScanPorts == best.Ports && found && id < best.Device) {
			best = PortSweepFinding{
				Device: id,
				Hour:   ds.MaxScanPortsHour,
				Ports:  ds.MaxScanPorts,
				Dests:  ds.MaxScanDests,
			}
			found = best.Ports > 0
		}
	}
	return best, found
}

// StatTests bundles the paper's statistical battery.
type StatTests struct {
	// TotalCPSvsConsumer: per-hour total packets, CPS vs consumer
	// (paper: CPS significantly greater, p < 0.0001).
	TotalCPSvsConsumer stats.MannWhitneyResult
	// BackscatterCPSvsConsumer: per-hour backscatter (paper: p < 0.0001,
	// U = 6061, Z = -5.95).
	BackscatterCPSvsConsumer stats.MannWhitneyResult
	// ConsumerUDPPortsVsIPs: Pearson between hourly targeted ports and
	// destination IPs for consumer UDP (paper: r = 0.95, p < 0.0001).
	ConsumerUDPPortsVsIPs stats.PearsonResult
	// ScannersVsScanPackets: Pearson between hourly scanning device count
	// and scan packets (paper: r ~ 0, p > 0.05).
	ScannersVsScanPackets stats.PearsonResult
}

// RunStatTests executes the battery. Cancellation is checked between
// tests; a cancelled run returns ctx.Err() with the partial StatTests.
func (a *Analyzer) RunStatTests(ctx context.Context) (StatTests, error) {
	var out StatTests
	var err error

	if err = ctx.Err(); err != nil {
		return out, err
	}
	cpsTotal := a.res.HourlyTotalSeries(devicedb.CPS)
	consTotal := a.res.HourlyTotalSeries(devicedb.Consumer)
	// Order (consumer, CPS) so a negative Z mirrors the paper's Z = -5.95
	// (consumer below CPS).
	out.TotalCPSvsConsumer, err = stats.MannWhitneyU(consTotal, cpsTotal)
	if err != nil {
		return out, err
	}
	if err = ctx.Err(); err != nil {
		return out, err
	}
	out.BackscatterCPSvsConsumer, err = stats.MannWhitneyU(
		a.res.HourlyClassSeries(classify.Backscatter, devicedb.Consumer),
		a.res.HourlyClassSeries(classify.Backscatter, devicedb.CPS))
	if err != nil {
		return out, err
	}
	if err = ctx.Err(); err != nil {
		return out, err
	}
	udp := a.UDPSurface(devicedb.Consumer)
	out.ConsumerUDPPortsVsIPs, err = stats.Pearson(udp.DstPorts, udp.DstIPs)
	if err != nil {
		return out, err
	}
	if err = ctx.Err(); err != nil {
		return out, err
	}
	scanCons := a.ScanSurface(devicedb.Consumer)
	scanCPS := a.ScanSurface(devicedb.CPS)
	devices := make([]float64, len(scanCons.Devices))
	packets := make([]float64, len(scanCons.Packets))
	for i := range devices {
		devices[i] = scanCons.Devices[i] + scanCPS.Devices[i]
		packets[i] = scanCons.Packets[i] + scanCPS.Packets[i]
	}
	out.ScannersVsScanPackets, err = stats.Pearson(devices, packets)
	return out, err
}
