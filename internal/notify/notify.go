// Package notify turns inference results into the operational notification
// artifacts the paper's first contribution promises ("Internet-wide,
// IoT-tailored notifications of such exploitations, thus permitting rapid
// remediation"): per-ISP abuse bundles listing each operator's compromised
// devices, their observed behaviours, and the intel that corroborates them.
//
// Bundle construction is strictly filter-then-aggregate: the noise floor
// (MinPackets) is applied to each device before anything is counted, so an
// operator's Packets total never includes traffic from devices the report
// does not name.
package notify

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/malwaredb"
	"iotscope/internal/netx"
	"iotscope/internal/threatintel"
)

// DeviceEntry is one compromised device inside a bundle.
type DeviceEntry struct {
	Device     int      `json:"device"`
	IP         string   `json:"ip"`
	Category   string   `json:"category"`
	Type       string   `json:"type"`
	Services   []string `json:"services,omitempty"`
	FirstSeen  int      `json:"firstSeenHour"`
	Packets    uint64   `json:"packets"`
	Records    uint64   `json:"records"`
	ActiveDays int      `json:"activeDays"`
	Behaviours []string `json:"behaviours"`
	// UDPPorts and TCPPorts are the destination ports the device probed or
	// scanned, ascending, capped at MaxPortsPerDevice.
	UDPPorts []uint16 `json:"udpPorts,omitempty"`
	TCPPorts []uint16 `json:"tcpPorts,omitempty"`
	// ThreatFlags are corroborating threat-intelligence categories.
	ThreatFlags []string `json:"threatFlags,omitempty"`
	// MalwareFamilies and MalwareHashes are sandbox-corpus hits against the
	// device's address: family names and the sample hashes behind them.
	MalwareFamilies []string `json:"malwareFamilies,omitempty"`
	MalwareHashes   []string `json:"malwareHashes,omitempty"`
}

// MaxPortsPerDevice caps the per-device port evidence a report carries; an
// interval-119-style sweep touches tens of thousands of ports and an abuse
// desk does not need them enumerated.
const MaxPortsPerDevice = 12

// Bundle is the abuse notification for one operator.
type Bundle struct {
	ISP     string        `json:"isp"`
	ASN     uint32        `json:"asn"`
	Country string        `json:"country"`
	Devices []DeviceEntry `json:"devices"`
	Packets uint64        `json:"packets"`
	Records uint64        `json:"records"`
	// ISPIndex is the operator's index in the geo registry, carried so the
	// notification pipeline can resolve the operator's abuse contact.
	ISPIndex int `json:"ispIndex"`
}

// Config tunes bundle construction.
type Config struct {
	// MinDevices drops operators with fewer compromised devices.
	MinDevices int
	// MinPackets drops devices below a noise floor.
	MinPackets uint64
}

// DefaultConfig notifies every operator about every device.
func DefaultConfig() Config { return Config{MinDevices: 1, MinPackets: 1} }

// Sources collects the analysis outputs evidence is assembled from. Result,
// Inventory, and Registry are required; the intel sources are optional and
// extend the per-device evidence when present.
type Sources struct {
	Result    *correlate.Result
	Inventory *devicedb.Inventory
	Registry  *geo.Registry
	Threat    *threatintel.Repository
	Malware   *malwaredb.DB
	Catalog   *malwaredb.Catalog
}

// BuildBundles assembles per-ISP bundles with full per-device evidence,
// ordered by descending device count. Filtering precedes aggregation:
// devices under the MinPackets floor are dropped first and contribute to no
// total, port index, or intel lookup.
func BuildBundles(src Sources, cfg Config) []Bundle {
	if cfg.MinDevices < 1 {
		cfg.MinDevices = 1
	}
	res := src.Result

	// Pass 1 — filter. Nothing below is aggregated before this pass is done.
	kept := make([]int, 0, len(res.Devices))
	for id, ds := range res.Devices {
		if ds.TotalPackets() >= cfg.MinPackets {
			kept = append(kept, id)
		}
	}
	sort.Ints(kept)

	// Pass 2 — evidence indexes over the surviving devices only.
	udpPorts, tcpPorts := invertPortIndexes(res, kept)

	// Pass 3 — aggregate.
	byISP := make(map[int][]DeviceEntry)
	pktsByISP := make(map[int]uint64)
	recsByISP := make(map[int]uint64)
	for i, id := range kept {
		ds := res.Devices[id]
		d := src.Inventory.At(id)
		entry := DeviceEntry{
			Device:     id,
			IP:         d.IP.String(),
			Category:   d.Category.String(),
			Type:       d.Type.String(),
			Services:   d.Services,
			FirstSeen:  ds.FirstSeen,
			Packets:    ds.TotalPackets(),
			Records:    ds.Records,
			ActiveDays: bits.OnesCount64(ds.DayMask),
			Behaviours: behaviours(ds),
			UDPPorts:   udpPorts[i],
			TCPPorts:   tcpPorts[i],
		}
		if src.Threat != nil {
			for _, c := range src.Threat.CategoriesOf(d.IP) {
				entry.ThreatFlags = append(entry.ThreatFlags, c.String())
			}
		}
		if src.Malware != nil {
			entry.MalwareFamilies, entry.MalwareHashes = malwareEvidence(src, d.IP)
		}
		byISP[d.ISP] = append(byISP[d.ISP], entry)
		pktsByISP[d.ISP] += entry.Packets
		recsByISP[d.ISP] += entry.Records
	}

	bundles := make([]Bundle, 0, len(byISP))
	for isp, devices := range byISP {
		if len(devices) < cfg.MinDevices {
			continue
		}
		info := src.Registry.ISPs[isp]
		bundles = append(bundles, Bundle{
			ISP:      info.Name,
			ASN:      info.ASN,
			Country:  info.Country,
			Devices:  devices,
			Packets:  pktsByISP[isp],
			Records:  recsByISP[isp],
			ISPIndex: isp,
		})
	}
	sort.Slice(bundles, func(i, j int) bool {
		if len(bundles[i].Devices) != len(bundles[j].Devices) {
			return len(bundles[i].Devices) > len(bundles[j].Devices)
		}
		if bundles[i].Packets != bundles[j].Packets {
			return bundles[i].Packets > bundles[j].Packets
		}
		return bundles[i].ISP < bundles[j].ISP
	})
	return bundles
}

// invertPortIndexes turns the result's per-port device lists into per-device
// port lists for the devices in keep (ascending IDs): udp[i] and tcp[i] are
// keep[i]'s ports, ascending, capped at MaxPortsPerDevice, nil when it has
// none. The correlation aggregates by port because the paper's tables do; a
// complaint needs the transpose. Ports are visited ascending, so a list is
// born sorted and stops growing at the cap: the work per cell is one dense
// lookup, and what is allocated follows the kept devices, not the cells. A
// device named by both realm lists of one port gets the port twice.
func invertPortIndexes(res *correlate.Result, keep []int) (udp, tcp [][]uint16) {
	if len(keep) == 0 {
		return nil, nil
	}
	// slot[id] is 1 + the device's index in keep, 0 for a device not kept.
	slot := make([]int32, keep[len(keep)-1]+1)
	for i, id := range keep {
		slot[id] = int32(i + 1)
	}
	// A list is carved from one slab, at full cap, when its device's first
	// port arrives: appending never reallocates, no list can grow into its
	// neighbour's slots, and a device with no ports keeps a nil list.
	slab := make([]uint16, 2*len(keep)*MaxPortsPerDevice)
	udp, tcp = make([][]uint16, len(keep)), make([][]uint16, len(keep))
	add := func(lists [][]uint16, devices []int32, port uint16) {
		for _, id := range devices {
			if uint(id) >= uint(len(slot)) || slot[id] == 0 {
				continue
			}
			l := &lists[slot[id]-1]
			if *l == nil {
				*l, slab = slab[:0:MaxPortsPerDevice], slab[MaxPortsPerDevice:]
			}
			if len(*l) < MaxPortsPerDevice {
				*l = append(*l, port)
			}
		}
	}
	correlate.WalkUDPPorts(res.UDPPorts, func(port uint16, agg *correlate.PortAgg) {
		add(udp, agg.Devices, port)
	})
	correlate.WalkTCPPorts(res.TCPScanPorts, func(port uint16, agg *correlate.TCPPortAgg) {
		add(tcp, agg.DevicesConsumer, port)
		add(tcp, agg.DevicesCPS, port)
	})
	return udp, tcp
}

// malwareEvidence collects the distinct families and sample hashes of
// sandbox reports whose network activity touched ip. Samples the catalog
// cannot attribute surface as "unclassified" — a hit without a name is
// still evidence.
func malwareEvidence(src Sources, ip netx.Addr) (families, hashes []string) {
	seen := make(map[string]bool)
	for _, ri := range src.Malware.ReportsForIP(ip) {
		rep := src.Malware.Report(ri)
		hashes = append(hashes, rep.SHA256)
		fam := "unclassified"
		if src.Catalog != nil {
			if f, ok := src.Catalog.Family(rep.SHA256); ok {
				fam = f
			}
		}
		if !seen[fam] {
			seen[fam] = true
			families = append(families, fam)
		}
	}
	sort.Strings(families)
	sort.Strings(hashes)
	return families, hashes
}

// behaviours summarizes what the device was observed doing.
func behaviours(ds *correlate.DeviceStats) []string {
	var out []string
	if ds.Packets[classify.ScanTCP.Index()] > 0 {
		out = append(out, "tcp-scanning")
	}
	if ds.Packets[classify.ScanICMP.Index()] > 0 {
		out = append(out, "icmp-scanning")
	}
	if ds.Packets[classify.UDP.Index()] > 0 {
		out = append(out, "udp-probing")
	}
	if ds.Packets[classify.Backscatter.Index()] > 0 {
		out = append(out, "dos-victim")
	}
	if ds.Packets[classify.Other.Index()] > 0 {
		out = append(out, "misconfiguration")
	}
	return out
}

// Render writes one bundle as an abuse-report text.
func (b Bundle) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "To: abuse contact, %s (AS%d, %s)\n", b.ISP, b.ASN, b.Country)
	fmt.Fprintf(&sb, "Subject: %d compromised IoT device(s) observed at a network telescope\n\n",
		len(b.Devices))
	fmt.Fprintf(&sb, "The following devices in your address space emitted %d unsolicited\n", b.Packets)
	fmt.Fprintf(&sb, "packets toward unused (dark) address space during the capture window:\n\n")
	for _, d := range b.Devices {
		fmt.Fprintf(&sb, "  %-16s %s/%s", d.IP, d.Category, d.Type)
		if len(d.Services) > 0 {
			fmt.Fprintf(&sb, " (%s)", strings.Join(d.Services, ", "))
		}
		fmt.Fprintf(&sb, "\n    first seen hour %d, %d packets, behaviours: %s\n",
			d.FirstSeen, d.Packets, strings.Join(d.Behaviours, ", "))
		if len(d.ThreatFlags) > 0 {
			fmt.Fprintf(&sb, "    corroborated by threat intelligence: %s\n",
				strings.Join(d.ThreatFlags, ", "))
		}
	}
	sb.WriteString("\nPlease investigate and remediate (credential reset / firmware update / isolation).\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
