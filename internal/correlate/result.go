// Package correlate implements the paper's inference engine (Sec. III-B):
// it streams the telescope's hourly flowtuple files, joins every source
// address against the IoT inventory, classifies the traffic, and
// accumulates the per-device, per-hour, and per-port statistics every
// downstream table and figure is computed from.
//
// Hour files are independent, so the correlator processes them with a
// bounded worker pool and merges commutative partial aggregates — the
// streaming design the paper needs at 5 TB scale (an ablation bench
// compares it against batch loading).
package correlate

import (
	"fmt"
	"strconv"
	"strings"

	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
)

// DeviceStats accumulates one inferred device's unsolicited activity.
type DeviceStats struct {
	ID        int
	FirstSeen int // hour index of first appearance
	Records   uint64
	Packets   [classify.NumClasses]uint64
	// DayMask has bit d set when the device was seen during day d
	// (windows up to 64 days; the paper's is 6).
	DayMask uint64
	// BackscatterHourly is kept per hour (sparse) to support the DoS spike
	// attribution of Sec. IV-B1.
	BackscatterHourly map[int]uint64
	// MaxScanPorts tracks the device's widest single-hour TCP port sweep
	// (the Sec. IV-C interval-119 investigation).
	MaxScanPorts     int
	MaxScanPortsHour int
	MaxScanDests     int
}

// TotalPackets sums the device's packets across classes.
func (d *DeviceStats) TotalPackets() uint64 {
	var total uint64
	for _, v := range d.Packets {
		total += v
	}
	return total
}

// CatHour aggregates one (category, hour) cell.
type CatHour struct {
	Packets       [classify.NumClasses]uint64
	ActiveDevices int
	// UDP probing surface (Fig. 5).
	UDPDstIPs   uint64
	UDPDstPorts uint64
	UDPDevices  int
	// TCP scanning surface (Fig. 9).
	ScanDstIPs   uint64
	ScanDstPorts uint64
	ScanDevices  int
}

// HourStats aggregates one hour across categories.
type HourStats struct {
	Hour       int
	RecordsIoT uint64
	// PerCat is indexed by devicedb.Category - 1.
	PerCat [2]CatHour
}

// Cat returns the category cell.
func (h *HourStats) Cat(c devicedb.Category) *CatHour {
	return &h.PerCat[int(c)-1]
}

// PortAgg aggregates one UDP destination port (Table IV). Devices lists the
// distinct device indices that probed the port, ascending; it is nil when
// empty and may share backing storage with other ports' lists, so treat it
// as read-only.
type PortAgg struct {
	Packets uint64
	Devices []int32
}

// TCPPortAgg aggregates one TCP-scanned destination port with realm splits
// (Table V). The device lists follow the same contract as PortAgg.Devices:
// ascending, nil when empty, possibly shared backing — read-only.
type TCPPortAgg struct {
	Packets         uint64
	PacketsConsumer uint64
	DevicesConsumer []int32
	DevicesCPS      []int32
}

// PortHour keys the TCP scanning time series per (port, hour) for Fig. 10.
type PortHour struct {
	Port uint16
	Hour uint16
}

// MarshalText renders the key as "port/hour" so maps keyed by PortHour are
// JSON-serializable (encoding/json requires text-marshalable map keys, and
// sorts them, so serialized results are deterministic).
func (ph PortHour) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%d/%d", ph.Port, ph.Hour), nil
}

// UnmarshalText parses the "port/hour" form and accepts nothing but what
// MarshalText writes: two decimal 16-bit numbers, no sign, space or leading
// zero, nothing before, between or after them. Two distinct JSON keys
// therefore never decode to one PortHour, where the later would silently
// overwrite the earlier.
func (ph *PortHour) UnmarshalText(text []byte) error {
	port, hour, _ := strings.Cut(string(text), "/")
	p, perr := strconv.ParseUint(port, 10, 16)
	h, herr := strconv.ParseUint(hour, 10, 16)
	got := PortHour{Port: uint16(p), Hour: uint16(h)}
	if canon, _ := got.MarshalText(); perr != nil || herr != nil || string(canon) != string(text) {
		return fmt.Errorf("correlate: %q is not a port/hour key", text)
	}
	*ph = got
	return nil
}

// BackgroundStats counts traffic from sources outside the inventory, which
// the correlation discards.
type BackgroundStats struct {
	Records uint64
	Packets uint64
	Sources uint64 // approximate unique non-IoT sources
}

// Result is the full correlation output.
type Result struct {
	Hours        int
	Devices      map[int]*DeviceStats
	Hourly       []HourStats
	UDPPorts     map[uint16]*PortAgg
	TCPScanPorts map[uint16]*TCPPortAgg
	TCPPortHour  map[PortHour]uint64
	Background   BackgroundStats
	// Ingest reports ingestion health: hours ingested, retried, and
	// quarantined, with per-hour wrapped errors (see FaultPolicy).
	Ingest IngestStats
}

// TotalIoTPackets sums packets attributed to inferred devices.
func (r *Result) TotalIoTPackets() uint64 {
	var total uint64
	for _, h := range r.Hourly {
		for ci := range h.PerCat {
			for _, v := range h.PerCat[ci].Packets {
				total += v
			}
		}
	}
	return total
}

// ClassPackets sums IoT packets for one class, optionally one category
// (pass 0 for both).
func (r *Result) ClassPackets(cls classify.Class, cat devicedb.Category) uint64 {
	var total uint64
	for _, h := range r.Hourly {
		for ci := range h.PerCat {
			if cat != 0 && ci != int(cat)-1 {
				continue
			}
			total += h.PerCat[ci].Packets[cls.Index()]
		}
	}
	return total
}

// HourlyClassSeries extracts a per-hour packet series for one class and
// category (0 = both).
func (r *Result) HourlyClassSeries(cls classify.Class, cat devicedb.Category) []float64 {
	out := make([]float64, r.Hours)
	for i := range r.Hourly {
		h := &r.Hourly[i]
		for ci := range h.PerCat {
			if cat != 0 && ci != int(cat)-1 {
				continue
			}
			out[i] += float64(h.PerCat[ci].Packets[cls.Index()])
		}
	}
	return out
}

// HourlyTotalSeries extracts per-hour total IoT packets for a category
// (0 = both).
func (r *Result) HourlyTotalSeries(cat devicedb.Category) []float64 {
	out := make([]float64, r.Hours)
	for i := range r.Hourly {
		h := &r.Hourly[i]
		for ci := range h.PerCat {
			if cat != 0 && ci != int(cat)-1 {
				continue
			}
			for _, v := range h.PerCat[ci].Packets {
				out[i] += float64(v)
			}
		}
	}
	return out
}
