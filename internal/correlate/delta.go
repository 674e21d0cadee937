package correlate

import (
	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
)

// This file is the O(window) half of checkpointing. A full CheckpointExport
// costs what has accumulated; a CheckpointDelta costs what one commit
// changed. The hour part of a delta is exactly what mergeDense reads from a
// sealed hourScratch, captured when the hour is merged; restoring it
// rebuilds a scratch and runs it through the same merge an uninterrupted
// run performed, so base + deltas and a never-stopped correlator export
// identically.

// DeviceDelta is one device's activity within a single hour. FirstSeen, the
// day mask and the hour of the widest scan all follow from the hour itself.
type DeviceDelta struct {
	ID           int32
	Records      uint64
	Packets      [classify.NumClasses]uint64
	Backscatter  uint64
	MaxScanPorts int32
	MaxScanDests int32
}

// PortDelta is one UDP port's packets within a single hour.
type PortDelta struct {
	Port    uint16
	Packets uint64
}

// TCPPortDelta is one TCP scan port's packets within a single hour.
type TCPPortDelta struct {
	Port            uint16
	Packets         uint64
	PacketsConsumer uint64
}

// RegisterDelta is one background-sources HLL register the hour raised.
type RegisterDelta struct {
	Index uint32
	Rank  uint8
}

// HourDelta is the serializable form of what one sealed hour merged into
// the running result. The key lists hold port<<32|device membership keys
// the global sets gained from this hour; entries keep the scratch's
// first-touch order, which replay does not depend on.
type HourDelta struct {
	Stats       HourStats // Stats.Hour names the hour
	BGRecords   uint64
	BGPackets   uint64
	BGRegisters []RegisterDelta
	Devices     []DeviceDelta
	UDPPorts    []PortDelta
	TCPPorts    []TCPPortDelta
	UDPKeys     []uint64
	ConKeys     []uint64
	CPSKeys     []uint64
}

// CheckpointDelta is what one checkpoint commit changed: at most one sealed
// hour, plus the ingestion bookkeeping as it stands after the commit
// (absolute, because retries and quarantines move it between commits).
// HoursOK is not carried: it always equals the number of ingested hours.
type CheckpointDelta struct {
	Hour              *HourDelta // nil for a bookkeeping-only commit
	IngestRetried     int
	IngestQuarantined int
	QuarantinedHours  []int32 // ascending
	Faults            []FaultExport
}

// capture fills d from a scratch mergeDense has just folded in. raised must
// have been collected before the merge; the gained slices are the keys that
// merge appended to the merge state.
func (d *HourDelta) capture(s *hourScratch, raised []RegisterDelta, udp, con, cps []uint64) {
	d.Stats = s.stats
	d.BGRecords, d.BGPackets = s.bgRecords, s.bgPackets
	d.BGRegisters = raised
	d.Devices = d.Devices[:0]
	for _, idx := range s.touched {
		ds := &s.devs[idx]
		d.Devices = append(d.Devices, DeviceDelta{
			ID:           idx,
			Records:      ds.Records,
			Packets:      ds.Packets,
			Backscatter:  s.bsPkts[idx],
			MaxScanPorts: int32(ds.MaxScanPorts),
			MaxScanDests: int32(ds.MaxScanDests),
		})
	}
	d.UDPPorts = d.UDPPorts[:0]
	for _, p := range s.udpTouched {
		d.UDPPorts = append(d.UDPPorts, PortDelta{Port: p, Packets: s.udpPkts[p]})
	}
	d.TCPPorts = d.TCPPorts[:0]
	for _, p := range s.tcpTouched {
		d.TCPPorts = append(d.TCPPorts, TCPPortDelta{Port: p, Packets: s.tcpPkts[p], PacketsConsumer: s.tcpPktsCon[p]})
	}
	d.UDPKeys = append(d.UDPKeys[:0], udp...)
	d.ConKeys = append(d.ConKeys[:0], con...)
	d.CPSKeys = append(d.CPSKeys[:0], cps...)
}

// loadScratch rebuilds the scratch a sealed hour left behind from its delta,
// as a fed and folded window would have, validating everything the
// merge indexes with: an entry that names a device outside the inventory,
// repeats a device or port, or a membership key whose device or port the
// hour never touched is ErrBadFormat, never a panic or a silently skewed
// result. On error the scratch is dirty and must be recycled.
func (c *Correlator) loadScratch(s *hourScratch, d *HourDelta) error {
	hour := d.Stats.Hour
	s.hour = hour
	s.stats = d.Stats
	s.bgRecords, s.bgPackets = d.BGRecords, d.BGPackets
	for _, r := range d.BGRegisters {
		if err := s.bgSrcHLL.Raise(int(r.Index), r.Rank); err != nil {
			return badf("hour %d delta: %v", hour, err)
		}
	}
	for i := range d.Devices {
		dd := &d.Devices[i]
		if dd.ID < 0 || int(dd.ID) >= len(s.devs) {
			return badf("hour %d delta names device %d outside inventory of %d", hour, dd.ID, len(s.devs))
		}
		ds := &s.devs[dd.ID]
		if ds.Records != 0 || dd.Records == 0 || dd.MaxScanPorts < 0 || dd.MaxScanDests < 0 {
			return badf("hour %d delta device %d repeated or empty", hour, dd.ID)
		}
		*ds = DeviceStats{
			ID:           int(dd.ID),
			FirstSeen:    hour,
			Records:      dd.Records,
			Packets:      dd.Packets,
			MaxScanPorts: int(dd.MaxScanPorts),
			MaxScanDests: int(dd.MaxScanDests),
		}
		if day := hour / 24; day < 64 {
			ds.DayMask = 1 << day
		}
		if dd.MaxScanPorts > 0 {
			ds.MaxScanPortsHour = hour
		}
		s.bsPkts[dd.ID] = dd.Backscatter
		s.touched = append(s.touched, dd.ID)
	}
	for _, pd := range d.UDPPorts {
		if s.udpMark.has(pd.Port) {
			return badf("hour %d delta repeats UDP port %d", hour, pd.Port)
		}
		s.udpMark.add(pd.Port)
		s.udpTouched = append(s.udpTouched, pd.Port)
		s.udpPkts[pd.Port] = pd.Packets
	}
	for _, pd := range d.TCPPorts {
		if s.tcpMark.has(pd.Port) {
			return badf("hour %d delta repeats TCP port %d", hour, pd.Port)
		}
		s.tcpMark.add(pd.Port)
		s.tcpTouched = append(s.tcpTouched, pd.Port)
		s.tcpPkts[pd.Port] = pd.Packets
		s.tcpPktsCon[pd.Port] = pd.PacketsConsumer
	}
	loadKeys := func(set *u64set, keys []uint64, mark *portBitset, what string, consumer func(uint8) bool) error {
		for _, k := range keys {
			port, dev := k>>32, k&0xffffffff
			if port > 0xffff || !mark.has(uint16(port)) || dev >= uint64(len(s.devs)) ||
				s.devs[dev].Records == 0 || !consumer(c.devCat[dev]) {
				return badf("hour %d delta %s key %#x names a port or device the hour did not touch", hour, what, k)
			}
			set.add(k)
		}
		return nil
	}
	isCon := func(cat uint8) bool { return cat == uint8(devicedb.Consumer) }
	if err := loadKeys(&s.udpPortDev, d.UDPKeys, &s.udpMark, "UDP", func(uint8) bool { return true }); err != nil {
		return err
	}
	if err := loadKeys(&s.tcpDevCon, d.ConKeys, &s.tcpMark, "consumer", isCon); err != nil {
		return err
	}
	return loadKeys(&s.tcpDevCPS, d.CPSKeys, &s.tcpMark, "CPS", func(cat uint8) bool { return !isCon(cat) })
}

// Delta returns what changed since the previous Delta call as one
// replayable frame. ok is false when that change cannot be expressed as
// one: more than one hour was sealed in between, so the caller must persist
// a full Export instead. The delta aliases buffers the next sealed hour
// overwrites; encode it before ingesting further.
//
// Delta is the checkpoint writer's side of a contract: a single writer
// calls it once per commit, appends the frame to a store that already
// holds everything before it, and falls back to a full Export whenever
// that is not the case (first commit, a failed append, ok == false).
func (inc *Incremental) Delta() (d *CheckpointDelta, ok bool) {
	ok = inc.unsaved <= 1
	d = &CheckpointDelta{
		IngestRetried:     inc.res.Ingest.HoursRetried,
		IngestQuarantined: inc.res.Ingest.HoursQuarantined,
		QuarantinedHours:  sortedHourList(inc.quarantined),
		Faults:            exportFaults(inc.res.Ingest.Faults),
	}
	if inc.unsaved == 1 {
		d.Hour = &inc.delta
	}
	inc.unsaved = 0
	return d, ok
}

// replay applies one checkpoint frame on top of the restored state.
func (inc *Incremental) replay(d *CheckpointDelta) error {
	maxHours := len(inc.res.Hourly)
	if hd := d.Hour; hd != nil {
		h := hd.Stats.Hour
		if h < 0 || h >= maxHours {
			return badf("checkpoint delta hour %d outside [0, %d)", h, maxHours)
		}
		if inc.hours[h] || inc.quarantined[h] {
			return badf("checkpoint delta repeats settled hour %d", h)
		}
		s := inc.c.getScratch()
		if err := inc.c.loadScratch(s, hd); err != nil {
			inc.c.putScratch(s)
			return err
		}
		if err := inc.merge(s); err != nil {
			return err
		}
	}
	quarantined, err := restoreHourSet(d.QuarantinedHours, maxHours, "quarantined")
	if err != nil {
		return err
	}
	for h := range quarantined {
		if inc.hours[h] {
			return badf("checkpoint delta hour %d both ingested and quarantined", h)
		}
	}
	faults, err := restoreFaults(d.Faults)
	if err != nil {
		return err
	}
	inc.quarantined = quarantined
	inc.res.Ingest.HoursRetried = d.IngestRetried
	inc.res.Ingest.HoursQuarantined = d.IngestQuarantined
	inc.res.Ingest.Faults = faults
	return nil
}
