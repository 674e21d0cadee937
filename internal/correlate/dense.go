package correlate

import (
	"math/bits"
	"slices"

	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/sketch"
)

// This file implements the dense hot path: an hour's record batches are
// accumulated (Window.Feed) into a pool-recycled hourScratch whose
// accumulators are flat arrays indexed by device index or port — the
// inventory is dense and its length is known up front, so nothing on the
// per-record path touches a Go map or allocates. A completed scratch is
// folded into the running Result by Incremental.merge, which then resets
// and recycles it.

const fibMult = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, for index hashing

// u64set is an open-addressed, linear-probing hash set of uint64 keys — the
// dense replacement for the per-hour map[...]struct{} accumulators. Keys
// are stored biased by +1 so an all-zero table means empty, which makes
// reset a memclr; keys must therefore fit in 63 bits, which every layout
// used here (device<<16|port, device<<32|addr, port<<32|device) does.
type u64set struct {
	slots  []uint64
	used   int
	growAt int
	shift  uint
	mask   uint64
}

func (s *u64set) init(capHint int) {
	size := 1024
	for size < capHint*2 {
		size <<= 1
	}
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.Len(uint(size-1)))
	s.mask = uint64(size - 1)
	s.growAt = size * 3 / 4
	s.used = 0
}

// add inserts key and reports whether it was absent.
func (s *u64set) add(key uint64) bool {
	if s.used >= s.growAt {
		s.grow()
	}
	k := key + 1
	i := (key * fibMult) >> s.shift
	for {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = k
			s.used++
			return true
		}
		if v == k {
			return false
		}
		i = (i + 1) & s.mask
	}
}

func (s *u64set) grow() {
	old := s.slots
	s.slots = make([]uint64, len(old)*2)
	s.shift--
	s.mask = uint64(len(s.slots) - 1)
	s.growAt = len(s.slots) * 3 / 4
	for _, k := range old {
		if k != 0 {
			i := ((k - 1) * fibMult) >> s.shift
			for s.slots[i] != 0 {
				i = (i + 1) & s.mask
			}
			s.slots[i] = k
		}
	}
}

// reset empties the set, keeping capacity.
func (s *u64set) reset() {
	if s.used > 0 {
		clear(s.slots)
		s.used = 0
	}
}

// union inserts every key of o.
func (s *u64set) union(o *u64set) {
	if o.used == 0 {
		return
	}
	for _, k := range o.slots {
		if k != 0 {
			s.add(k - 1)
		}
	}
}

// addTo inserts every key into dst and appends the ones dst did not hold
// to gained, which it returns.
func (s *u64set) addTo(dst *u64set, gained []uint64) []uint64 {
	for _, k := range s.slots {
		if k != 0 && dst.add(k-1) {
			gained = append(gained, k-1)
		}
	}
	return gained
}

// ipIndex is a fixed open-addressed hash table joining a source address to
// its inventory index — the query issued once per flowtuple. It replaces
// the inventory's generic map on the hot path: flat arrays, one multiply
// for the hash, no per-lookup overhead beyond the probe itself.
type ipIndex struct {
	keys  []uint32
	vals  []int32 // -1 = empty slot
	shift uint
	mask  uint32
}

func buildIPIndex(devs []devicedb.Device) ipIndex {
	size := 256
	for size < len(devs)*2 {
		size <<= 1
	}
	ix := ipIndex{
		keys:  make([]uint32, size),
		vals:  make([]int32, size),
		shift: uint(64 - bits.Len(uint(size-1))),
		mask:  uint32(size - 1),
	}
	for i := range ix.vals {
		ix.vals[i] = -1
	}
	for idx, d := range devs {
		ip := uint32(d.IP)
		i := uint32((uint64(ip) * fibMult) >> ix.shift)
		for ix.vals[i] >= 0 {
			i = (i + 1) & ix.mask
		}
		ix.keys[i], ix.vals[i] = ip, int32(idx)
	}
	return ix
}

func (ix *ipIndex) lookup(ip uint32) (int32, bool) {
	i := uint32((uint64(ip) * fibMult) >> ix.shift)
	for {
		v := ix.vals[i]
		if v < 0 {
			return 0, false
		}
		if ix.keys[i] == ip {
			return v, true
		}
		i = (i + 1) & ix.mask
	}
}

// Per-device flag bits for the per-hour unique-device counters.
const (
	devFlagUDP uint8 = 1 << iota
	devFlagScan
)

// hourScratch holds every accumulator needed to process one hour file.
// Instances are recycled through the correlator's sync.Pool: after a merge
// folds a scratch into the running Result it is reset (touched lists bound
// the clearing cost) and reused, so steady-state correlation allocates
// nothing per record and almost nothing per hour.
type hourScratch struct {
	hour      int
	stats     HourStats
	bgRecords uint64
	bgPackets uint64
	bgSrcHLL  *sketch.HLL

	// Dense per-device accumulators, indexed by inventory device index.
	devs      []DeviceStats // Records == 0 ⇒ untouched this hour
	touched   []int32       // touched device indices, first-touch order
	bsPkts    []uint64      // backscatter packets this hour
	devFlags  []uint8       // devFlagUDP / devFlagScan markers
	scanPorts []uint32      // unique TCP scan ports this hour
	scanDests []uint32      // unique TCP scan destinations this hour

	// (device, port) and (device, destination) dedup sets feeding the
	// per-device sweep counters above.
	devPort u64set
	devDest u64set

	// Dense per-port accumulators (65536 slots each); the touched lists
	// and mark bitsets bound the reset cost to the ports actually seen.
	udpPkts    []uint64
	tcpPkts    []uint64
	tcpPktsCon []uint64
	udpTouched []uint16
	tcpTouched []uint16
	udpMark    portBitset
	tcpMark    portBitset

	// Per-(port, device) membership feeding the Result's port→device sets.
	udpPortDev u64set
	tcpDevCon  u64set
	tcpDevCPS  u64set

	// Per-category hour surface counters (CatHour).
	activeN      [2]int
	udpDevN      [2]int
	scanDevN     [2]int
	udpDstIPs    [2]u64set
	scanDstIPs   [2]u64set
	udpDstPorts  [2]portBitset
	scanDstPorts [2]portBitset

	batch []flowtuple.Record
}

func (c *Correlator) newScratch() *hourScratch {
	c.scratchAllocs.Add(1)
	n := c.inv.Len()
	s := &hourScratch{
		devs:       make([]DeviceStats, n),
		bsPkts:     make([]uint64, n),
		devFlags:   make([]uint8, n),
		scanPorts:  make([]uint32, n),
		scanDests:  make([]uint32, n),
		udpPkts:    make([]uint64, 1<<16),
		tcpPkts:    make([]uint64, 1<<16),
		tcpPktsCon: make([]uint64, 1<<16),
		batch:      make([]flowtuple.Record, flowtuple.BatchSize),
	}
	s.devPort.init(4096)
	s.devDest.init(4096)
	s.udpPortDev.init(4096)
	s.tcpDevCon.init(4096)
	s.tcpDevCPS.init(4096)
	s.bgSrcHLL, _ = sketch.NewHLL(bgPrecision) // a valid precision: cannot fail
	for i := 0; i < 2; i++ {
		s.udpDstIPs[i].init(1024)
		s.scanDstIPs[i].init(1024)
	}
	return s
}

// reset clears the scratch for reuse, touching only what the last hour
// dirtied.
func (s *hourScratch) reset() {
	for _, idx := range s.touched {
		s.devs[idx] = DeviceStats{}
		s.bsPkts[idx] = 0
		s.devFlags[idx] = 0
		s.scanPorts[idx] = 0
		s.scanDests[idx] = 0
	}
	s.touched = s.touched[:0]
	for _, p := range s.udpTouched {
		s.udpPkts[p] = 0
	}
	s.udpTouched = s.udpTouched[:0]
	for _, p := range s.tcpTouched {
		s.tcpPkts[p] = 0
		s.tcpPktsCon[p] = 0
	}
	s.tcpTouched = s.tcpTouched[:0]
	s.udpMark.clear()
	s.tcpMark.clear()
	s.devPort.reset()
	s.devDest.reset()
	s.udpPortDev.reset()
	s.tcpDevCon.reset()
	s.tcpDevCPS.reset()
	s.stats = HourStats{}
	s.bgRecords, s.bgPackets = 0, 0
	s.bgSrcHLL.Reset()
	s.activeN = [2]int{}
	s.udpDevN = [2]int{}
	s.scanDevN = [2]int{}
	for i := 0; i < 2; i++ {
		s.udpDstIPs[i].reset()
		s.scanDstIPs[i].reset()
		s.udpDstPorts[i].clear()
		s.scanDstPorts[i].clear()
	}
}

func (c *Correlator) getScratch() *hourScratch {
	if v := c.scratch.Get(); v != nil {
		return v.(*hourScratch)
	}
	return c.newScratch()
}

func (c *Correlator) putScratch(s *hourScratch) {
	s.reset()
	c.scratch.Put(s)
}

// accumulate folds one record into the scratch — the innermost loop of the
// whole pipeline. Every data structure it touches is a flat array.
func (c *Correlator) accumulate(s *hourScratch, hour int, rec *flowtuple.Record) {
	devIdx, isIoT := c.ips.lookup(rec.SrcIP)
	if !isIoT {
		s.bgRecords++
		s.bgPackets += uint64(rec.Packets)
		s.bgSrcHLL.AddAddr(rec.SrcIP)
		return
	}
	idx := int(devIdx)
	cls := classify.Record(*rec)
	ci := int(c.devCat[idx]) - 1
	pkts := uint64(rec.Packets)

	s.stats.RecordsIoT++
	s.stats.PerCat[ci].Packets[cls.Index()] += pkts

	d := &s.devs[idx]
	if d.Records == 0 {
		d.ID = idx
		d.FirstSeen = hour
		if day := hour / 24; day < 64 {
			d.DayMask = 1 << day
		}
		s.touched = append(s.touched, devIdx)
		s.activeN[ci]++
	}
	d.Records++
	d.Packets[cls.Index()] += pkts

	switch cls {
	case classify.UDP:
		if s.devFlags[idx]&devFlagUDP == 0 {
			s.devFlags[idx] |= devFlagUDP
			s.udpDevN[ci]++
		}
		s.udpDstIPs[ci].add(uint64(rec.DstIP))
		s.udpDstPorts[ci].add(rec.DstPort)
		p := rec.DstPort
		if !s.udpMark.has(p) {
			s.udpMark.add(p)
			s.udpTouched = append(s.udpTouched, p)
		}
		s.udpPkts[p] += pkts
		s.udpPortDev.add(uint64(p)<<32 | uint64(uint32(devIdx)))
	case classify.Backscatter:
		s.bsPkts[idx] += pkts
	case classify.ScanTCP:
		if s.devFlags[idx]&devFlagScan == 0 {
			s.devFlags[idx] |= devFlagScan
			s.scanDevN[ci]++
		}
		s.scanDstIPs[ci].add(uint64(rec.DstIP))
		s.scanDstPorts[ci].add(rec.DstPort)
		p := rec.DstPort
		if !s.tcpMark.has(p) {
			s.tcpMark.add(p)
			s.tcpTouched = append(s.tcpTouched, p)
		}
		s.tcpPkts[p] += pkts
		if c.devCat[idx] == uint8(devicedb.Consumer) {
			s.tcpPktsCon[p] += pkts
			s.tcpDevCon.add(uint64(p)<<32 | uint64(uint32(devIdx)))
		} else {
			s.tcpDevCPS.add(uint64(p)<<32 | uint64(uint32(devIdx)))
		}
		if s.devPort.add(uint64(uint32(devIdx))<<16 | uint64(p)) {
			s.scanPorts[idx]++
		}
		if s.devDest.add(uint64(uint32(devIdx))<<32 | uint64(rec.DstIP)) {
			s.scanDests[idx]++
		}
	}
}

// finalize computes the hour's CatHour surface counters and folds the
// per-device port sweeps into running maxima, mirroring the epilogue of the
// historical map-based path.
func (s *hourScratch) finalize(hour int) {
	for ci := 0; ci < 2; ci++ {
		cat := &s.stats.PerCat[ci]
		cat.ActiveDevices = s.activeN[ci]
		cat.UDPDevices = s.udpDevN[ci]
		cat.ScanDevices = s.scanDevN[ci]
		cat.UDPDstIPs = uint64(s.udpDstIPs[ci].used)
		cat.UDPDstPorts = s.udpDstPorts[ci].count()
		cat.ScanDstIPs = uint64(s.scanDstIPs[ci].used)
		cat.ScanDstPorts = s.scanDstPorts[ci].count()
	}
	for _, idx := range s.touched {
		d := &s.devs[idx]
		if n := int(s.scanPorts[idx]); n > d.MaxScanPorts {
			d.MaxScanPorts = n
			d.MaxScanPortsHour = hour
			d.MaxScanDests = int(s.scanDests[idx])
		}
	}
}

// absorb folds o — another plane of the same hour, fed a disjoint set of
// source addresses — into s, leaving s what one plane fed both record
// streams would hold: per-device rows are disjoint and copy, packet and
// device counters add, the port-device membership sets and the destination
// sets union, the background HLL's registers take the max, port bitsets OR.
// The per-device dedup sets (devPort, devDest) only feed sweep counters that
// accumulate has already settled, so they stay behind. s must not be
// finalized yet; o is left as it was, for its owner to recycle.
func (s *hourScratch) absorb(o *hourScratch) {
	s.stats.RecordsIoT += o.stats.RecordsIoT
	s.bgRecords += o.bgRecords
	s.bgPackets += o.bgPackets
	s.bgSrcHLL.Merge(o.bgSrcHLL) //nolint:errcheck // same precision by construction

	for _, idx := range o.touched {
		s.devs[idx] = o.devs[idx]
		s.bsPkts[idx] = o.bsPkts[idx]
		s.devFlags[idx] = o.devFlags[idx]
		s.scanPorts[idx] = o.scanPorts[idx]
		s.scanDests[idx] = o.scanDests[idx]
	}
	s.touched = append(s.touched, o.touched...)

	for _, p := range o.udpTouched {
		if !s.udpMark.has(p) {
			s.udpMark.add(p)
			s.udpTouched = append(s.udpTouched, p)
		}
		s.udpPkts[p] += o.udpPkts[p]
	}
	for _, p := range o.tcpTouched {
		if !s.tcpMark.has(p) {
			s.tcpMark.add(p)
			s.tcpTouched = append(s.tcpTouched, p)
		}
		s.tcpPkts[p] += o.tcpPkts[p]
		s.tcpPktsCon[p] += o.tcpPktsCon[p]
	}
	s.udpPortDev.union(&o.udpPortDev)
	s.tcpDevCon.union(&o.tcpDevCon)
	s.tcpDevCPS.union(&o.tcpDevCPS)

	for ci := range s.stats.PerCat {
		for cl, v := range o.stats.PerCat[ci].Packets {
			s.stats.PerCat[ci].Packets[cl] += v
		}
		s.activeN[ci] += o.activeN[ci]
		s.udpDevN[ci] += o.udpDevN[ci]
		s.scanDevN[ci] += o.scanDevN[ci]
		s.udpDstIPs[ci].union(&o.udpDstIPs[ci])
		s.scanDstIPs[ci].union(&o.scanDstIPs[ci])
		s.udpDstPorts[ci].or(&o.udpDstPorts[ci])
		s.scanDstPorts[ci].or(&o.scanDstPorts[ci])
	}
}

// deviceSlab hands out DeviceStats in blocks, so the global result performs
// one allocation per slabBlock new devices instead of one each.
type deviceSlab struct{ buf []DeviceStats }

const slabBlock = 256

func (sl *deviceSlab) new(v DeviceStats) *DeviceStats {
	if len(sl.buf) == 0 {
		sl.buf = make([]DeviceStats, slabBlock)
	}
	d := &sl.buf[0]
	sl.buf = sl.buf[1:]
	*d = v
	return d
}

// portHourPkts is one (port, hour) cell buffered for the deferred
// TCPPortHour build: each cell is produced by exactly one hour's merge, so
// the merger appends instead of inserting into a growing map.
type portHourPkts struct {
	key  PortHour
	pkts uint64
}

// mergeState is the merger's private accumulation state across hours: slabs
// amortizing the Result's pointer allocations, dense by-index/by-port pointer
// tables replacing every map the merge loop used to probe, and the global
// (port, device) membership sets behind the Result's per-port device lists.
// Aggregates enter the Result's maps at first touch; what a merge leaves
// pending — port-hour cells and newly gained membership keys — is folded in
// by finalizeResult, whose cost therefore follows what changed since the
// last finalize, not what has accumulated.
type mergeState struct {
	slab    deviceSlab
	udpSlab []PortAgg
	tcpSlab []TCPPortAgg

	// Dense lookup tables: device index → stats, port → aggregate. The
	// port tables are full 65536-slot arrays.
	devByIdx  []*DeviceStats
	udpByPort []*PortAgg
	tcpByPort []*TCPPortAgg

	udp u64set // port<<32 | device, UDP probes
	con u64set // port<<32 | device, TCP scans from consumer devices
	cps u64set // port<<32 | device, TCP scans from CPS devices

	// Pending since the last finalizeResult: each (port, hour) cell is
	// produced by exactly one hour's merge, so the merger appends instead of
	// inserting into a growing map; the gained lists hold the keys each
	// membership set did not have before, which name the ports whose device
	// lists are stale.
	portHours []portHourPkts
	udpGained []uint64
	conGained []uint64
	cpsGained []uint64
}

func newMergeState() *mergeState {
	st := &mergeState{}
	st.udp.init(4096)
	st.con.init(4096)
	st.cps.init(4096)
	return st
}

// knownDevice reports whether the device index has already been merged —
// the incremental path's first-seen test, replacing a Result map probe.
func (st *mergeState) knownDevice(idx int32) bool {
	return st.devByIdx != nil && st.devByIdx[idx] != nil
}

func (st *mergeState) newPortAgg() *PortAgg {
	if len(st.udpSlab) == 0 {
		st.udpSlab = make([]PortAgg, slabBlock)
	}
	a := &st.udpSlab[0]
	st.udpSlab = st.udpSlab[1:]
	return a
}

func (st *mergeState) newTCPPortAgg() *TCPPortAgg {
	if len(st.tcpSlab) == 0 {
		st.tcpSlab = make([]TCPPortAgg, slabBlock)
	}
	a := &st.tcpSlab[0]
	st.tcpSlab = st.tcpSlab[1:]
	return a
}

// finalizeResult brings the Result's reader-facing views up to date with
// the merges since the last call: pending port-hour cells are folded into
// TCPPortHour (presized when this is the first fold, the batch case), and
// the device list of every port whose membership set gained a key is
// re-merged — untouched ports keep their lists. Idempotent and free when
// nothing is pending; callers invoke it before handing res to a reader.
func (st *mergeState) finalizeResult(res *Result) {
	if len(st.portHours) > 0 {
		if len(res.TCPPortHour) == 0 {
			res.TCPPortHour = make(map[PortHour]uint64, len(st.portHours))
		}
		for _, e := range st.portHours {
			res.TCPPortHour[e.key] += e.pkts
		}
		st.portHours = st.portHours[:0]
	}
	st.udpGained = mergeLists(st.udpGained, func(p uint16) *[]int32 { return &st.udpByPort[p].Devices })
	st.conGained = mergeLists(st.conGained, func(p uint16) *[]int32 { return &st.tcpByPort[p].DevicesConsumer })
	st.cpsGained = mergeLists(st.cpsGained, func(p uint16) *[]int32 { return &st.tcpByPort[p].DevicesCPS })
}

// mergeLists folds the gained membership keys into the per-port device
// lists and returns the emptied buffer. Sorting the keys (port major,
// device minor) yields exactly the grouping needed; each dirty port's old
// ascending list is merged with its ascending new devices into one shared
// backing array, so a finalize performs one list allocation however many
// ports it touches. Gained keys are by construction absent from the old
// lists, so the merge never meets a duplicate.
func mergeLists(gained []uint64, list func(port uint16) *[]int32) []uint64 {
	if len(gained) == 0 {
		return gained
	}
	slices.Sort(gained)
	total := len(gained)
	for lo := 0; lo < len(gained); lo = portRun(gained, lo) {
		total += len(*list(uint16(gained[lo] >> 32)))
	}
	backing := make([]int32, 0, total)
	for lo := 0; lo < len(gained); {
		hi := portRun(gained, lo)
		l := list(uint16(gained[lo] >> 32))
		start, old := len(backing), *l
		for _, k := range gained[lo:hi] {
			dev := int32(uint32(k))
			for len(old) > 0 && old[0] < dev {
				backing = append(backing, old[0])
				old = old[1:]
			}
			backing = append(backing, dev)
		}
		backing = append(backing, old...)
		*l = backing[start:len(backing):len(backing)]
		lo = hi
	}
	return gained[:0]
}

// portRun returns the end of the run of keys sharing keys[lo]'s port.
func portRun(keys []uint64, lo int) int {
	port := keys[lo] >> 32
	hi := lo + 1
	for hi < len(keys) && keys[hi]>>32 == port {
		hi++
	}
	return hi
}

// newMergeStateFromResult rebuilds the merger's dense accumulation state
// from a finalized Result — the restore half of incremental checkpointing.
// The dense tables point at the Result's own aggregates, so subsequent
// mergeDense calls mutate the same objects an uninterrupted run would
// have; the Result already carries every view, so nothing is pending.
func newMergeStateFromResult(res *Result, invLen int) *mergeState {
	st := newMergeState()
	st.devByIdx = make([]*DeviceStats, invLen)
	for id, d := range res.Devices {
		st.devByIdx[id] = d
	}
	st.udpByPort = make([]*PortAgg, 1<<16)
	st.tcpByPort = make([]*TCPPortAgg, 1<<16)
	for p, a := range res.UDPPorts {
		st.udpByPort[p] = a
		for _, dev := range a.Devices {
			st.udp.add(uint64(p)<<32 | uint64(uint32(dev)))
		}
	}
	for p, a := range res.TCPScanPorts {
		st.tcpByPort[p] = a
		for _, dev := range a.DevicesConsumer {
			st.con.add(uint64(p)<<32 | uint64(uint32(dev)))
		}
		for _, dev := range a.DevicesCPS {
			st.cps.add(uint64(p)<<32 | uint64(uint32(dev)))
		}
	}
	return st
}

// mergeDense folds a completed hour scratch into the running result. All
// operations commute, so merge order (and thus worker scheduling) cannot
// change the outcome. Only Incremental.merge calls this, from whichever one
// goroutine owns the Incremental, so it needs no locking.
func mergeDense(res *Result, s *hourScratch, bgSources *sketch.HLL, st *mergeState) {
	res.Hourly[s.hour] = s.stats
	res.Background.Records += s.bgRecords
	res.Background.Packets += s.bgPackets
	bgSources.Merge(s.bgSrcHLL) //nolint:errcheck // same precision by construction

	if st.devByIdx == nil {
		st.devByIdx = make([]*DeviceStats, len(s.devs))
		st.udpByPort = make([]*PortAgg, 1<<16)
		st.tcpByPort = make([]*TCPPortAgg, 1<<16)
	}

	for _, idx := range s.touched {
		d := &s.devs[idx]
		g := st.devByIdx[idx]
		if g == nil {
			g = st.slab.new(*d)
			if s.bsPkts[idx] > 0 {
				g.BackscatterHourly = map[int]uint64{s.hour: s.bsPkts[idx]}
			}
			st.devByIdx[idx] = g
			res.Devices[int(idx)] = g
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
		if s.bsPkts[idx] > 0 {
			if g.BackscatterHourly == nil {
				g.BackscatterHourly = make(map[int]uint64, 4)
			}
			g.BackscatterHourly[s.hour] += s.bsPkts[idx]
		}
		// Ties go to the earlier hour so the result is independent of the
		// order partials reach the merger.
		if d.MaxScanPorts > g.MaxScanPorts ||
			(d.MaxScanPorts == g.MaxScanPorts && d.MaxScanPorts > 0 &&
				d.MaxScanPortsHour < g.MaxScanPortsHour) {
			g.MaxScanPorts = d.MaxScanPorts
			g.MaxScanPortsHour = d.MaxScanPortsHour
			g.MaxScanDests = d.MaxScanDests
		}
	}

	for _, p := range s.udpTouched {
		g := st.udpByPort[p]
		if g == nil {
			g = st.newPortAgg()
			st.udpByPort[p] = g
			res.UDPPorts[p] = g
		}
		g.Packets += s.udpPkts[p]
	}
	for _, p := range s.tcpTouched {
		g := st.tcpByPort[p]
		if g == nil {
			g = st.newTCPPortAgg()
			st.tcpByPort[p] = g
			res.TCPScanPorts[p] = g
		}
		g.Packets += s.tcpPkts[p]
		g.PacketsConsumer += s.tcpPktsCon[p]
		st.portHours = append(st.portHours,
			portHourPkts{key: PortHour{Port: p, Hour: uint16(s.hour)}, pkts: s.tcpPkts[p]})
	}
	// Per-port device membership folds into the merger's global sets; the
	// keys they gain are what finalizeResult re-merges lists from.
	st.udpGained = s.udpPortDev.addTo(&st.udp, st.udpGained)
	st.conGained = s.tcpDevCon.addTo(&st.con, st.conGained)
	st.cpsGained = s.tcpDevCPS.addTo(&st.cps, st.cpsGained)
}
