// Package analysis computes the paper's evaluation artifacts — every table
// and figure of Secs. III and IV — from a correlation result, the device
// inventory, and the Internet registry. Each exported method corresponds to
// one artifact; internal/report renders them and bench_test.go regenerates
// them per experiment.
package analysis

import (
	"sort"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/stats"
)

// Analyzer binds a correlation result to its world metadata.
type Analyzer struct {
	res *correlate.Result
	inv *devicedb.Inventory
	reg *geo.Registry
}

// New returns an analyzer over a correlation result.
func New(res *correlate.Result, inv *devicedb.Inventory, reg *geo.Registry) *Analyzer {
	return &Analyzer{res: res, inv: inv, reg: reg}
}

// CountryRow is one country's device counts (Figs. 1a/1b).
type CountryRow struct {
	Code           string
	Consumer       int
	CPS            int
	PctCompromised float64 // Fig. 1b secondary axis; zero for deployment rows
}

// Total returns consumer + CPS.
func (c CountryRow) Total() int { return c.Consumer + c.CPS }

// DeployedByCountry reproduces Fig. 1a: the top-n countries hosting
// deployed IoT devices, plus the cumulative share they cover.
func (a *Analyzer) DeployedByCountry(n int) (rows []CountryRow, cumulativeShare float64) {
	counts := make(map[string]*CountryRow)
	total := 0
	for _, d := range a.inv.All() {
		row := counts[d.Country]
		if row == nil {
			row = &CountryRow{Code: d.Country}
			counts[d.Country] = row
		}
		if d.Category == devicedb.Consumer {
			row.Consumer++
		} else {
			row.CPS++
		}
		total++
	}
	rows = topCountryRows(counts, n)
	covered := 0
	for _, r := range rows {
		covered += r.Total()
	}
	if total > 0 {
		cumulativeShare = float64(covered) / float64(total)
	}
	return rows, cumulativeShare
}

// CompromisedByCountry reproduces Fig. 1b: top-n countries hosting inferred
// compromised devices, with the percentage of each country's deployed
// devices that are compromised.
func (a *Analyzer) CompromisedByCountry(n int) []CountryRow {
	deployed := make(map[string]int)
	for _, d := range a.inv.All() {
		deployed[d.Country]++
	}
	counts := make(map[string]*CountryRow)
	for id := range a.res.Devices {
		d := a.inv.At(id)
		row := counts[d.Country]
		if row == nil {
			row = &CountryRow{Code: d.Country}
			counts[d.Country] = row
		}
		if d.Category == devicedb.Consumer {
			row.Consumer++
		} else {
			row.CPS++
		}
	}
	rows := topCountryRows(counts, n)
	for i := range rows {
		if dep := deployed[rows[i].Code]; dep > 0 {
			rows[i].PctCompromised = 100 * float64(rows[i].Total()) / float64(dep)
		}
	}
	return rows
}

func topCountryRows(counts map[string]*CountryRow, n int) []CountryRow {
	rows := make([]CountryRow, 0, len(counts))
	for _, r := range counts {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total() != rows[j].Total() {
			return rows[i].Total() > rows[j].Total()
		}
		return rows[i].Code < rows[j].Code
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// CompromisedSummary is the headline Sec. III-B result.
type CompromisedSummary struct {
	Total, Consumer, CPS   int
	Countries              int
	ConsumerCountries      int
	CPSCountries           int
	ConsumerISPs, CPSISPs  int
	PacketsTotal           uint64
	MeanDailyActiveDevices float64
}

// Summary computes the headline inference numbers.
func (a *Analyzer) Summary() CompromisedSummary {
	var s CompromisedSummary
	countries := make(map[string]bool)
	consCountries := make(map[string]bool)
	cpsCountries := make(map[string]bool)
	consISPs := make(map[int]bool)
	cpsISPs := make(map[int]bool)
	for id := range a.res.Devices {
		d := a.inv.At(id)
		s.Total++
		countries[d.Country] = true
		if d.Category == devicedb.Consumer {
			s.Consumer++
			consCountries[d.Country] = true
			consISPs[d.ISP] = true
		} else {
			s.CPS++
			cpsCountries[d.Country] = true
			cpsISPs[d.ISP] = true
		}
	}
	s.Countries = len(countries)
	s.ConsumerCountries = len(consCountries)
	s.CPSCountries = len(cpsCountries)
	s.ConsumerISPs = len(consISPs)
	s.CPSISPs = len(cpsISPs)
	s.PacketsTotal = a.res.TotalIoTPackets()

	// Mean daily active devices (paper: 10,889), from per-device day masks.
	days := (a.res.Hours + 23) / 24
	if days > 0 {
		perDay := make([]int, days)
		for _, ds := range a.res.Devices {
			for d := 0; d < days && d < 64; d++ {
				if ds.DayMask&(1<<d) != 0 {
					perDay[d]++
				}
			}
		}
		sum := 0
		for _, n := range perDay {
			sum += n
		}
		s.MeanDailyActiveDevices = float64(sum) / float64(days)
	}
	return s
}

// DayDiscovery is one day of Fig. 2's cumulative discovery curve.
type DayDiscovery struct {
	Day                int
	NewDevices         int
	CumulativeAll      int
	CumulativeConsumer int
	CumulativeCPS      int
}

// DiscoveryTimeline reproduces Fig. 2 from per-device first-seen hours.
func (a *Analyzer) DiscoveryTimeline() []DayDiscovery {
	days := (a.res.Hours + 23) / 24
	if days == 0 {
		return nil
	}
	newAll := make([]int, days)
	newCons := make([]int, days)
	newCPS := make([]int, days)
	for id, ds := range a.res.Devices {
		day := ds.FirstSeen / 24
		if day >= days {
			continue
		}
		newAll[day]++
		if a.inv.At(id).Category == devicedb.Consumer {
			newCons[day]++
		} else {
			newCPS[day]++
		}
	}
	out := make([]DayDiscovery, days)
	cumAll, cumCons, cumCPS := 0, 0, 0
	for d := 0; d < days; d++ {
		cumAll += newAll[d]
		cumCons += newCons[d]
		cumCPS += newCPS[d]
		out[d] = DayDiscovery{
			Day: d, NewDevices: newAll[d],
			CumulativeAll: cumAll, CumulativeConsumer: cumCons, CumulativeCPS: cumCPS,
		}
	}
	return out
}

// TypeRow is one slice of Fig. 3's consumer type pie.
type TypeRow struct {
	Type    devicedb.DeviceType
	Devices int
	Pct     float64
}

// ConsumerTypeMix reproduces Fig. 3 over the inferred consumer devices.
func (a *Analyzer) ConsumerTypeMix() []TypeRow {
	counts := make(map[devicedb.DeviceType]int)
	total := 0
	for id := range a.res.Devices {
		d := a.inv.At(id)
		if d.Category != devicedb.Consumer {
			continue
		}
		counts[d.Type]++
		total++
	}
	rows := make([]TypeRow, 0, len(counts))
	for typ, n := range counts {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		rows = append(rows, TypeRow{Type: typ, Devices: n, Pct: pct})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Devices != rows[j].Devices {
			return rows[i].Devices > rows[j].Devices
		}
		return rows[i].Type < rows[j].Type
	})
	return rows
}

// ISPRow is one row of Tables I/II.
type ISPRow struct {
	Name    string
	Country string
	Devices int
	Pct     float64 // of the category's compromised devices
}

// TopISPs reproduces Table I (consumer) and Table II (CPS).
func (a *Analyzer) TopISPs(cat devicedb.Category, n int) []ISPRow {
	counts := make(map[int]int)
	total := 0
	for id := range a.res.Devices {
		d := a.inv.At(id)
		if d.Category != cat {
			continue
		}
		counts[d.ISP]++
		total++
	}
	rows := make([]ISPRow, 0, len(counts))
	for isp, devices := range counts {
		info := a.reg.ISPs[isp]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(devices) / float64(total)
		}
		rows = append(rows, ISPRow{
			Name: info.Name, Country: info.Country, Devices: devices, Pct: pct,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Devices != rows[j].Devices {
			return rows[i].Devices > rows[j].Devices
		}
		return rows[i].Name < rows[j].Name
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// ServiceRow is one row of Table III.
type ServiceRow struct {
	Service     string
	Application string
	Devices     int
	Pct         float64 // of compromised CPS devices
}

// CPSServices reproduces Table III: services run by the inferred CPS
// devices (not mutually exclusive).
func (a *Analyzer) CPSServices(n int) []ServiceRow {
	counts := make(map[string]int)
	totalCPS := 0
	for id := range a.res.Devices {
		d := a.inv.At(id)
		if d.Category != devicedb.CPS {
			continue
		}
		totalCPS++
		for _, svc := range d.Services {
			counts[svc]++
		}
	}
	rows := make([]ServiceRow, 0, len(counts))
	for svc, devices := range counts {
		app := ""
		if i := devicedb.CPSServiceIndex(svc); i >= 0 {
			app = devicedb.CPSServices[i].Application
		}
		pct := 0.0
		if totalCPS > 0 {
			pct = 100 * float64(devices) / float64(totalCPS)
		}
		rows = append(rows, ServiceRow{Service: svc, Application: app, Devices: devices, Pct: pct})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Devices != rows[j].Devices {
			return rows[i].Devices > rows[j].Devices
		}
		return rows[i].Service < rows[j].Service
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// ProtocolMix reproduces Fig. 4: each (protocol, realm) cell as a
// percentage of all IoT packets.
type ProtocolMix struct {
	// Percent of total IoT packets.
	TCPCPS, TCPConsumer   float64
	UDPCPS, UDPConsumer   float64
	ICMPCPS, ICMPConsumer float64
}

// ProtocolBreakdown computes Fig. 4. TCP covers scanning + TCP backscatter
// + other; ICMP covers echo scanning + ICMP backscatter. Backscatter is
// split by protocol using the per-class protocol composition recorded in
// the flowtuples (approximated here by the class totals: TCP-flag classes
// are TCP by construction; Backscatter mixes both, so it is apportioned by
// the scenario's reply mix which the classifier cannot recover — instead we
// fold all backscatter into the protocol cell it was observed on; since the
// correlator does not retain per-protocol backscatter splits, backscatter
// is reported in TCP, which holds ~90 % of reply packets).
func (a *Analyzer) ProtocolBreakdown() ProtocolMix {
	total := float64(a.res.TotalIoTPackets())
	if total == 0 {
		return ProtocolMix{}
	}
	pct := func(v uint64) float64 { return 100 * float64(v) / total }
	cls := func(c classify.Class, cat devicedb.Category) uint64 {
		return a.res.ClassPackets(c, cat)
	}
	return ProtocolMix{
		TCPCPS: pct(cls(classify.ScanTCP, devicedb.CPS) +
			cls(classify.Backscatter, devicedb.CPS) +
			cls(classify.Other, devicedb.CPS)),
		TCPConsumer: pct(cls(classify.ScanTCP, devicedb.Consumer) +
			cls(classify.Backscatter, devicedb.Consumer) +
			cls(classify.Other, devicedb.Consumer)),
		UDPCPS:       pct(cls(classify.UDP, devicedb.CPS)),
		UDPConsumer:  pct(cls(classify.UDP, devicedb.Consumer)),
		ICMPCPS:      pct(cls(classify.ScanICMP, devicedb.CPS)),
		ICMPConsumer: pct(cls(classify.ScanICMP, devicedb.Consumer)),
	}
}

// CDF builds the Fig. 6/11 style log-binned cumulative distribution.
func CDF(values []float64) *stats.LogHistogram {
	h := stats.NewLogHistogram(0, 7) // 1 .. 10M packets
	for _, v := range values {
		h.Observe(v)
	}
	return h
}
