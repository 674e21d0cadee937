package correlate

// The historical map-based correlator, preserved verbatim as the oracle the
// dense path is proven against (TestDenseMatchesReference*). It is the
// implementation that shipped before the batched-decode/dense-accumulator
// rework: per-hour map partials merged under a mutex. Any behavioral drift
// between the two paths is a bug in the dense path.

import (
	"cmp"
	"io"
	"slices"
	"sync"

	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/sketch"
)

// refPortAgg and refTCPPortAgg are the map-backed port aggregates the old
// implementation stored directly in the Result; the public schema has since
// moved to sorted []int32 device lists, so the oracle keeps the maps
// internally and materializes lists at the end of refProcessDataset.
type refPortAgg struct {
	Packets uint64
	Devices map[int]struct{}
}

type refTCPPortAgg struct {
	Packets         uint64
	PacketsConsumer uint64
	DevicesConsumer map[int]struct{}
	DevicesCPS      map[int]struct{}
}

// refPortSets carries the global per-port device memberships across merges.
type refPortSets struct {
	udp map[uint16]map[int]struct{}
	con map[uint16]map[int]struct{}
	cps map[uint16]map[int]struct{}
}

func newRefPortSets() *refPortSets {
	return &refPortSets{
		udp: make(map[uint16]map[int]struct{}),
		con: make(map[uint16]map[int]struct{}),
		cps: make(map[uint16]map[int]struct{}),
	}
}

func (ps *refPortSets) add(table map[uint16]map[int]struct{}, port uint16, ids map[int]struct{}) {
	set := table[port]
	if set == nil {
		set = make(map[int]struct{}, len(ids))
		table[port] = set
	}
	for id := range ids {
		set[id] = struct{}{}
	}
}

// refList materializes a membership set as the public sorted list form:
// ascending device indices, nil when empty.
func refList(set map[int]struct{}) []int32 {
	if len(set) == 0 {
		return nil
	}
	out := make([]int32, 0, len(set))
	for id := range set {
		out = append(out, int32(id))
	}
	slices.Sort(out)
	return out
}

// refPartial is the old commutative map-based partial aggregate.
type refPartial struct {
	hour       int
	stats      HourStats
	devices    map[int]*DeviceStats
	udpPorts   map[uint16]*refPortAgg
	tcpPorts   map[uint16]*refTCPPortAgg
	portHour   map[uint16]uint64 // TCP scan port → packets this hour
	bgRecords  uint64
	bgPackets  uint64
	bgSrcHLL   *sketch.HLL
	perDevPort map[int]map[uint16]struct{}
	perDevDest map[int]map[netx.Addr]struct{}
}

// refProcessHourFile streams one hour file into a map partial, one record
// at a time through Reader.Next.
func refProcessHourFile(c *Correlator, dir string, hour int) (*refPartial, error) {
	part := &refPartial{
		hour:       hour,
		stats:      HourStats{Hour: hour},
		devices:    make(map[int]*DeviceStats),
		udpPorts:   make(map[uint16]*refPortAgg),
		tcpPorts:   make(map[uint16]*refTCPPortAgg),
		portHour:   make(map[uint16]uint64),
		perDevPort: make(map[int]map[uint16]struct{}),
		perDevDest: make(map[int]map[netx.Addr]struct{}),
	}
	var err error
	part.bgSrcHLL, err = sketch.NewHLL(bgPrecision)
	if err != nil {
		return nil, err
	}

	var (
		active       [2]map[int]struct{}
		udpDevs      [2]map[int]struct{}
		scanDevs     [2]map[int]struct{}
		udpDstIPs    [2]map[uint32]struct{}
		udpDstPorts  [2]*portBitset
		scanDstIPs   [2]map[uint32]struct{}
		scanDstPorts [2]*portBitset
	)
	for i := 0; i < 2; i++ {
		active[i] = make(map[int]struct{}, 1024)
		udpDevs[i] = make(map[int]struct{}, 1024)
		scanDevs[i] = make(map[int]struct{}, 1024)
		udpDstIPs[i] = make(map[uint32]struct{}, 1024)
		udpDstPorts[i] = &portBitset{}
		scanDstIPs[i] = make(map[uint32]struct{}, 1024)
		scanDstPorts[i] = &portBitset{}
	}

	rd, err := flowtuple.Open(flowtuple.HourPath(dir, hour))
	if err != nil {
		return nil, err
	}
	defer rd.Close()

	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		devIdx, isIoT := c.inv.LookupIP(netx.Addr(rec.SrcIP))
		if !isIoT {
			part.bgRecords++
			part.bgPackets += uint64(rec.Packets)
			part.bgSrcHLL.AddAddr(rec.SrcIP)
			continue
		}
		dev := c.inv.At(devIdx)
		cls := classify.Record(rec)
		ci := int(dev.Category) - 1
		pkts := uint64(rec.Packets)

		part.stats.RecordsIoT++
		cat := &part.stats.PerCat[ci]
		cat.Packets[cls.Index()] += pkts
		active[ci][devIdx] = struct{}{}

		ds := part.devices[devIdx]
		if ds == nil {
			ds = &DeviceStats{ID: devIdx, FirstSeen: hour}
			if day := hour / 24; day < 64 {
				ds.DayMask = 1 << day
			}
			part.devices[devIdx] = ds
		}
		ds.Records++
		ds.Packets[cls.Index()] += pkts

		switch cls {
		case classify.UDP:
			udpDevs[ci][devIdx] = struct{}{}
			udpDstIPs[ci][rec.DstIP] = struct{}{}
			udpDstPorts[ci].add(rec.DstPort)
			pa := part.udpPorts[rec.DstPort]
			if pa == nil {
				pa = &refPortAgg{Devices: make(map[int]struct{}, 4)}
				part.udpPorts[rec.DstPort] = pa
			}
			pa.Packets += pkts
			pa.Devices[devIdx] = struct{}{}
		case classify.Backscatter:
			if ds.BackscatterHourly == nil {
				ds.BackscatterHourly = make(map[int]uint64, 4)
			}
			ds.BackscatterHourly[hour] += pkts
		case classify.ScanTCP:
			scanDevs[ci][devIdx] = struct{}{}
			scanDstIPs[ci][rec.DstIP] = struct{}{}
			scanDstPorts[ci].add(rec.DstPort)
			ta := part.tcpPorts[rec.DstPort]
			if ta == nil {
				ta = &refTCPPortAgg{
					DevicesConsumer: make(map[int]struct{}, 4),
					DevicesCPS:      make(map[int]struct{}, 4),
				}
				part.tcpPorts[rec.DstPort] = ta
			}
			ta.Packets += pkts
			if dev.Category == devicedb.Consumer {
				ta.PacketsConsumer += pkts
				ta.DevicesConsumer[devIdx] = struct{}{}
			} else {
				ta.DevicesCPS[devIdx] = struct{}{}
			}
			part.portHour[rec.DstPort] += pkts

			dp := part.perDevPort[devIdx]
			if dp == nil {
				dp = make(map[uint16]struct{}, 8)
				part.perDevPort[devIdx] = dp
			}
			dp[rec.DstPort] = struct{}{}
			dd := part.perDevDest[devIdx]
			if dd == nil {
				dd = make(map[netx.Addr]struct{}, 8)
				part.perDevDest[devIdx] = dd
			}
			dd[netx.Addr(rec.DstIP)] = struct{}{}
		}
	}

	for i := 0; i < 2; i++ {
		cat := &part.stats.PerCat[i]
		cat.ActiveDevices = len(active[i])
		cat.UDPDevices = len(udpDevs[i])
		cat.ScanDevices = len(scanDevs[i])
		cat.UDPDstIPs = uint64(len(udpDstIPs[i]))
		cat.UDPDstPorts = udpDstPorts[i].count()
		cat.ScanDstIPs = uint64(len(scanDstIPs[i]))
		cat.ScanDstPorts = scanDstPorts[i].count()
	}
	for devIdx, ports := range part.perDevPort {
		ds := part.devices[devIdx]
		if n := len(ports); n > ds.MaxScanPorts {
			ds.MaxScanPorts = n
			ds.MaxScanPortsHour = hour
			ds.MaxScanDests = len(part.perDevDest[devIdx])
		}
	}
	return part, nil
}

// refMergePartial is the old merge, fold-into-maps under the caller's lock.
// Device memberships accumulate in sets (held outside the Result) and are
// materialized as sorted lists once the whole dataset has merged.
func refMergePartial(res *Result, part *refPartial, bgSources *sketch.HLL, sets *refPortSets) {
	res.Hourly[part.hour] = part.stats
	res.Background.Records += part.bgRecords
	res.Background.Packets += part.bgPackets
	bgSources.Merge(part.bgSrcHLL) //nolint:errcheck // same precision

	for id, d := range part.devices {
		g := res.Devices[id]
		if g == nil {
			res.Devices[id] = d
			continue
		}
		if d.FirstSeen < g.FirstSeen {
			g.FirstSeen = d.FirstSeen
		}
		g.Records += d.Records
		g.DayMask |= d.DayMask
		for i := range g.Packets {
			g.Packets[i] += d.Packets[i]
		}
		if d.BackscatterHourly != nil {
			if g.BackscatterHourly == nil {
				g.BackscatterHourly = d.BackscatterHourly
			} else {
				for h, v := range d.BackscatterHourly {
					g.BackscatterHourly[h] += v
				}
			}
		}
		if d.MaxScanPorts > g.MaxScanPorts ||
			(d.MaxScanPorts == g.MaxScanPorts && d.MaxScanPorts > 0 &&
				d.MaxScanPortsHour < g.MaxScanPortsHour) {
			g.MaxScanPorts = d.MaxScanPorts
			g.MaxScanPortsHour = d.MaxScanPortsHour
			g.MaxScanDests = d.MaxScanDests
		}
	}
	for port, pa := range part.udpPorts {
		g := res.UDPPorts[port]
		if g == nil {
			g = &PortAgg{}
			res.UDPPorts[port] = g
		}
		g.Packets += pa.Packets
		sets.add(sets.udp, port, pa.Devices)
	}
	for port, ta := range part.tcpPorts {
		g := res.TCPScanPorts[port]
		if g == nil {
			g = &TCPPortAgg{}
			res.TCPScanPorts[port] = g
		}
		g.Packets += ta.Packets
		g.PacketsConsumer += ta.PacketsConsumer
		sets.add(sets.con, port, ta.DevicesConsumer)
		sets.add(sets.cps, port, ta.DevicesCPS)
	}
	if len(part.portHour) > 0 {
		cells := make([]PortDelta, 0, len(part.portHour))
		for port, v := range part.portHour {
			cells = append(cells, PortDelta{Port: port, Packets: v})
		}
		slices.SortFunc(cells, func(a, b PortDelta) int { return cmp.Compare(a.Port, b.Port) })
		res.TCPPortHour[part.hour] = cells
	}
}

// refProcessDataset is the old ProcessDataset: bounded worker pool, merge
// under a global mutex.
func refProcessDataset(c *Correlator, dir string) (*Result, error) {
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		return nil, err
	}
	maxHour := hours[len(hours)-1]
	res := newResult(maxHour + 1)

	var (
		mu      sync.Mutex
		errHour = -1
		hourErr error
		wg      sync.WaitGroup
	)
	sem := make(chan struct{}, c.opts.Workers)
	bgSources, err := sketch.NewHLL(bgPrecision)
	if err != nil {
		return nil, err
	}
	sets := newRefPortSets()
	for _, hour := range hours {
		wg.Add(1)
		sem <- struct{}{}
		go func(hour int) {
			defer wg.Done()
			defer func() { <-sem }()
			part, err := refProcessHourFile(c, dir, hour)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if c.opts.FaultPolicy == Lenient {
					res.Ingest.noteFailure(hour, err, IsRetryable(err))
					res.Ingest.HoursQuarantined++
					return
				}
				if errHour == -1 || hour < errHour {
					errHour, hourErr = hour, err
				}
				return
			}
			res.Ingest.HoursOK++
			refMergePartial(res, part, bgSources, sets)
		}(hour)
	}
	wg.Wait()
	if hourErr != nil {
		return nil, hourErr
	}
	for port, set := range sets.udp {
		res.UDPPorts[port].Devices = refList(set)
	}
	for port, set := range sets.con {
		res.TCPScanPorts[port].DevicesConsumer = refList(set)
	}
	for port, set := range sets.cps {
		res.TCPScanPorts[port].DevicesCPS = refList(set)
	}
	res.Background.Sources = bgSources.Estimate()
	return res, nil
}
