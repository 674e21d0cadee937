package correlate

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sync"

	"iotscope/internal/classify"
	"iotscope/internal/flowtuple"
	"iotscope/internal/sketch"
)

// This file defines the explicit serialization surface of the correlation
// output: flat, deterministically ordered slices instead of the maps and
// shared-backing lists a live Result carries. ResultExport (and its
// incremental sibling CheckpointExport) is what internal/resultstore
// encodes; Export/Result convert between the two without perturbing the
// dense hot path — maps are only rebuilt at import time, with the same
// invariants a merged and finalized Result obeys.

// ErrBadFormat flags a structurally invalid export or checkpoint: unsorted
// or duplicate keys, out-of-range hours, inconsistent counts. It is the
// correlate-level member of the repo-wide bad-format taxonomy (flowtuple and resultstore each carry their own sentinel for
// their layer), so callers classify validation failures with
// errors.Is(err, correlate.ErrBadFormat) instead of matching messages.
var ErrBadFormat = errors.New("correlate: bad export format")

// badf builds an ErrBadFormat-wrapped validation error, mirroring the
// resultstore idiom.
func badf(format string, args ...any) error {
	return fmt.Errorf("correlate: "+format+": %w", append(args, ErrBadFormat)...)
}

// HourCount is one sparse (hour, count) cell, the export form of the
// per-device BackscatterHourly map.
type HourCount struct {
	Hour  int32
	Count uint64
}

// DeviceExport is the flat form of one DeviceStats entry.
type DeviceExport struct {
	ID               int32
	FirstSeen        int32
	Records          uint64
	Packets          [classify.NumClasses]uint64
	DayMask          uint64
	MaxScanPorts     int32
	MaxScanPortsHour int32
	MaxScanDests     int32
	// Backscatter is ascending by hour; empty means nil map.
	Backscatter []HourCount
}

// PortExport is the flat form of one UDP port aggregate.
type PortExport struct {
	Port    uint16
	Packets uint64
	Devices []int32 // ascending, empty means nil list
}

// TCPPortExport is the flat form of one TCP scan port aggregate.
type TCPPortExport struct {
	Port            uint16
	Packets         uint64
	PacketsConsumer uint64
	DevicesConsumer []int32 // ascending, empty means nil list
	DevicesCPS      []int32 // ascending, empty means nil list
}

// PortHourExport is one (port, hour) → packets cell of the TCP scanning
// time series.
type PortHourExport struct {
	Port    uint16
	Hour    uint16
	Packets uint64
}

// FaultExport carries one HourFault with its error flattened to a message
// plus the sentinel classification needed to keep IsRetryable and
// errors.Is working after a round trip (the original wrapped error cannot
// itself be serialized).
type FaultExport struct {
	Hour      int32
	Attempts  int32
	Retryable bool
	Truncated bool
	BadFormat bool
	NotExist  bool
	Message   string
}

// ResultExport is the serializable form of a Result: every map and per-hour
// list flattened to a slice in a canonical order (devices and ports
// ascending, port-hour cells port-major), so encoding the same Result twice
// yields identical bytes.
type ResultExport struct {
	Hours        int
	Devices      []DeviceExport
	Hourly       []HourStats
	UDPPorts     []PortExport
	TCPScanPorts []TCPPortExport
	TCPPortHour  []PortHourExport
	Background   BackgroundStats

	IngestOK          int
	IngestRetried     int
	IngestQuarantined int
	Faults            []FaultExport
}

// Export flattens the Result into its canonical serializable form. The
// Result must be finalized (as every Result handed to a caller is); the
// export shares no mutable state with it.
func (r *Result) Export() *ResultExport {
	e := &ResultExport{
		Hours:             r.Hours,
		Hourly:            append([]HourStats(nil), r.Hourly...),
		Background:        r.Background,
		IngestOK:          r.Ingest.HoursOK,
		IngestRetried:     r.Ingest.HoursRetried,
		IngestQuarantined: r.Ingest.HoursQuarantined,
	}

	e.Devices = make([]DeviceExport, 0, len(r.Devices))
	for _, d := range r.Devices {
		de := DeviceExport{
			ID:               int32(d.ID),
			FirstSeen:        int32(d.FirstSeen),
			Records:          d.Records,
			Packets:          d.Packets,
			DayMask:          d.DayMask,
			MaxScanPorts:     int32(d.MaxScanPorts),
			MaxScanPortsHour: int32(d.MaxScanPortsHour),
			MaxScanDests:     int32(d.MaxScanDests),
		}
		if len(d.BackscatterHourly) > 0 {
			de.Backscatter = make([]HourCount, 0, len(d.BackscatterHourly))
			for h, n := range d.BackscatterHourly {
				de.Backscatter = append(de.Backscatter, HourCount{Hour: int32(h), Count: n})
			}
			slices.SortFunc(de.Backscatter, func(a, b HourCount) int { return cmp.Compare(a.Hour, b.Hour) })
		}
		e.Devices = append(e.Devices, de)
	}
	slices.SortFunc(e.Devices, func(a, b DeviceExport) int { return cmp.Compare(a.ID, b.ID) })

	// The port tables come off the ascending walk already in order.
	e.UDPPorts = make([]PortExport, 0, len(r.UDPPorts))
	WalkUDPPorts(r.UDPPorts, func(p uint16, a *PortAgg) {
		e.UDPPorts = append(e.UDPPorts, PortExport{Port: p, Packets: a.Packets, Devices: a.Devices})
	})
	e.TCPScanPorts = make([]TCPPortExport, 0, len(r.TCPScanPorts))
	WalkTCPPorts(r.TCPScanPorts, func(p uint16, a *TCPPortAgg) {
		e.TCPScanPorts = append(e.TCPScanPorts, TCPPortExport{
			Port:            p,
			Packets:         a.Packets,
			PacketsConsumer: a.PacketsConsumer,
			DevicesConsumer: a.DevicesConsumer,
			DevicesCPS:      a.DevicesCPS,
		})
	})
	e.TCPPortHour = exportPortHour(r.TCPPortHour)

	e.Faults = exportFaults(r.Ingest.Faults)
	return e
}

// portSlots recycles exportPortHour's port → slot table. A table in the pool
// is all zero.
var portSlots = sync.Pool{New: func() any { return new([1 << 16]uint32) }}

// exportPortHour lays the per-hour cells out port-major, hour-minor by a
// counting pass over the 16-bit port: each port's cells land in its run of
// the output, and scattering the hours in ascending order fills every run
// in hour order.
func exportPortHour(hours [][]PortDelta) []PortHourExport {
	slot := portSlots.Get().(*[1 << 16]uint32)
	for _, cells := range hours {
		for _, c := range cells {
			slot[c.Port]++
		}
	}
	next := uint32(0)
	for p, n := range slot {
		slot[p] = next
		next += n
	}
	out := make([]PortHourExport, next)
	for h, cells := range hours {
		for _, c := range cells {
			out[slot[c.Port]] = PortHourExport{Port: c.Port, Hour: uint16(h), Packets: c.Packets}
			slot[c.Port]++
		}
	}
	*slot = [1 << 16]uint32{}
	portSlots.Put(slot)
	return out
}

// exportFaults flattens ingest faults to their serializable form (nil when
// there are none).
func exportFaults(faults []HourFault) []FaultExport {
	if len(faults) == 0 {
		return nil
	}
	out := make([]FaultExport, 0, len(faults))
	for _, f := range faults {
		out = append(out, FaultExport{
			Hour:      int32(f.Hour),
			Attempts:  int32(f.Attempts),
			Retryable: f.Retryable,
			Truncated: errors.Is(f.Err, flowtuple.ErrTruncated),
			BadFormat: errors.Is(f.Err, flowtuple.ErrBadFormat),
			NotExist:  errors.Is(f.Err, fs.ErrNotExist),
			Message:   f.Err.Error(),
		})
	}
	return out
}

// restoreFaults rebuilds ingest faults from their export, rejecting a list
// that is not ascending by hour.
func restoreFaults(list []FaultExport) ([]HourFault, error) {
	var out []HourFault
	prevHour := int32(-1)
	for _, fe := range list {
		if fe.Hour <= prevHour {
			return nil, badf("fault list not ascending at hour %d", fe.Hour)
		}
		prevHour = fe.Hour
		out = append(out, HourFault{
			Hour:      int(fe.Hour),
			Attempts:  int(fe.Attempts),
			Retryable: fe.Retryable,
			Err: &storedFault{
				msg:       fe.Message,
				truncated: fe.Truncated,
				badFormat: fe.BadFormat,
				notExist:  fe.NotExist,
			},
		})
	}
	return out, nil
}

// storedFault is the reconstructed form of an ingest fault's error: the
// original message plus sentinel classification flags, so errors.Is
// against flowtuple.ErrBadFormat / flowtuple.ErrTruncated / fs.ErrNotExist
// — and therefore IsRetryable — behave exactly as they did before the
// round trip.
type storedFault struct {
	msg       string
	truncated bool
	badFormat bool
	notExist  bool
}

func (f *storedFault) Error() string { return f.msg }

// Is implements the errors.Is interface check for the preserved sentinels.
func (f *storedFault) Is(target error) bool {
	switch target {
	case flowtuple.ErrTruncated:
		return f.truncated
	case flowtuple.ErrBadFormat:
		return f.badFormat
	case fs.ErrNotExist:
		return f.notExist
	}
	return false
}

// Result rebuilds a live Result from the export. The rebuilt value obeys
// every invariant of a correlator-produced Result: non-nil maps, Hourly and
// TCPPortHour indexed by hour, ascending nil-when-empty cell and device
// lists (carved from one shared backing per section). Structural violations
// in the export — wrong hour indexing, unsorted or duplicate keys,
// out-of-range values — are rejected with an error rather than producing
// a subtly wrong Result.
func (e *ResultExport) Result() (*Result, error) {
	if e.Hours <= 0 {
		return nil, badf("export hours %d must be positive", e.Hours)
	}
	if len(e.Hourly) != e.Hours {
		return nil, badf("export has %d hourly rows, want %d", len(e.Hourly), e.Hours)
	}
	for i := range e.Hourly {
		if e.Hourly[i].Hour != i {
			return nil, badf("hourly row %d labeled hour %d", i, e.Hourly[i].Hour)
		}
	}
	res := newResult(e.Hours)
	copy(res.Hourly, e.Hourly)
	res.Background = e.Background
	res.Ingest.HoursOK = e.IngestOK
	res.Ingest.HoursRetried = e.IngestRetried
	res.Ingest.HoursQuarantined = e.IngestQuarantined

	// The entry counts are known up front, so size every map once (no
	// incremental rehash) and slab-allocate the per-entry structs — map
	// growth dominated the load profile before this.
	res.Devices = make(map[int]*DeviceStats, len(e.Devices))
	res.UDPPorts = make(map[uint16]*PortAgg, len(e.UDPPorts))
	res.TCPScanPorts = make(map[uint16]*TCPPortAgg, len(e.TCPScanPorts))
	devSlab := make([]DeviceStats, len(e.Devices))

	prevID := int32(-1)
	for i := range e.Devices {
		de := &e.Devices[i]
		if de.ID <= prevID {
			return nil, badf("device list not ascending at ID %d", de.ID)
		}
		prevID = de.ID
		d := &devSlab[i]
		*d = DeviceStats{
			ID:               int(de.ID),
			FirstSeen:        int(de.FirstSeen),
			Records:          de.Records,
			Packets:          de.Packets,
			DayMask:          de.DayMask,
			MaxScanPorts:     int(de.MaxScanPorts),
			MaxScanPortsHour: int(de.MaxScanPortsHour),
			MaxScanDests:     int(de.MaxScanDests),
		}
		if len(de.Backscatter) > 0 {
			d.BackscatterHourly = make(map[int]uint64, len(de.Backscatter))
			prevH := int32(-1)
			for _, hc := range de.Backscatter {
				if hc.Hour <= prevH || int(hc.Hour) >= e.Hours {
					return nil, badf("device %d backscatter hour %d invalid", de.ID, hc.Hour)
				}
				prevH = hc.Hour
				d.BackscatterHourly[int(hc.Hour)] = hc.Count
			}
		}
		res.Devices[d.ID] = d
	}
	// Device-list membership is validated against a dense ID bitmap: the
	// per-element map probe was a measurable share of the load profile. The
	// bitmap is sized by the largest ID, so it is built only while IDs are
	// dense; one hostile row near 2³¹ would otherwise cost 2 GiB.
	valid := knownDevices{rows: e.Devices}
	if int(prevID) < 64*len(e.Devices)+4096 {
		valid.table = make([]bool, int(prevID)+1)
		for i := range e.Devices {
			valid.table[e.Devices[i].ID] = true
		}
	}

	var udpLists int
	prevPort := -1
	for i := range e.UDPPorts {
		pe := &e.UDPPorts[i]
		if int(pe.Port) <= prevPort {
			return nil, badf("UDP port list not ascending at %d", pe.Port)
		}
		prevPort = int(pe.Port)
		udpLists += len(pe.Devices)
	}
	udpBacking := make([]int32, 0, udpLists)
	udpSlab := make([]PortAgg, len(e.UDPPorts))
	for i := range e.UDPPorts {
		pe := &e.UDPPorts[i]
		devs, err := carveList(&udpBacking, pe.Devices, &valid, "UDP", pe.Port)
		if err != nil {
			return nil, err
		}
		udpSlab[i] = PortAgg{Packets: pe.Packets, Devices: devs}
		res.UDPPorts[pe.Port] = &udpSlab[i]
	}

	var tcpLists int
	prevPort = -1
	for i := range e.TCPScanPorts {
		pe := &e.TCPScanPorts[i]
		if int(pe.Port) <= prevPort {
			return nil, badf("TCP port list not ascending at %d", pe.Port)
		}
		prevPort = int(pe.Port)
		tcpLists += len(pe.DevicesConsumer) + len(pe.DevicesCPS)
	}
	tcpBacking := make([]int32, 0, tcpLists)
	tcpSlab := make([]TCPPortAgg, len(e.TCPScanPorts))
	for i := range e.TCPScanPorts {
		pe := &e.TCPScanPorts[i]
		con, err := carveList(&tcpBacking, pe.DevicesConsumer, &valid, "TCP", pe.Port)
		if err != nil {
			return nil, err
		}
		cps, err := carveList(&tcpBacking, pe.DevicesCPS, &valid, "TCP", pe.Port)
		if err != nil {
			return nil, err
		}
		tcpSlab[i] = TCPPortAgg{
			Packets:         pe.Packets,
			PacketsConsumer: pe.PacketsConsumer,
			DevicesConsumer: con,
			DevicesCPS:      cps,
		}
		res.TCPScanPorts[pe.Port] = &tcpSlab[i]
	}

	// The cells are port-major, so filling each hour's list in cell order
	// leaves it ascending by port; the lists are carved from one backing.
	perHour := make([]int, e.Hours)
	prevKey := -1
	for _, ph := range e.TCPPortHour {
		key := int(ph.Port)<<16 | int(ph.Hour)
		if key <= prevKey {
			return nil, badf("port-hour list not ascending at %d/%d", ph.Port, ph.Hour)
		}
		prevKey = key
		if int(ph.Hour) >= e.Hours {
			return nil, badf("port-hour cell %d/%d outside %d hours", ph.Port, ph.Hour, e.Hours)
		}
		perHour[ph.Hour]++
	}
	cellBacking := make([]PortDelta, len(e.TCPPortHour))
	for h, n := range perHour {
		if n > 0 {
			res.TCPPortHour[h] = cellBacking[:0:n]
			cellBacking = cellBacking[n:]
		}
	}
	for _, ph := range e.TCPPortHour {
		res.TCPPortHour[ph.Hour] = append(res.TCPPortHour[ph.Hour], PortDelta{Port: ph.Port, Packets: ph.Packets})
	}

	var err error
	if res.Ingest.Faults, err = restoreFaults(e.Faults); err != nil {
		return nil, err
	}
	return res, nil
}

// knownDevices answers whether an ID is one of an export's device rows: from
// the bitmap when there is one, else by binary search over the ascending rows.
type knownDevices struct {
	table []bool // nil when IDs are too sparse for a bitmap
	rows  []DeviceExport
}

func (k *knownDevices) has(id int32) bool {
	if k.table != nil {
		return uint(id) < uint(len(k.table)) && k.table[id] // a negative id wraps high
	}
	return k.search(id)
}

// search is has without a bitmap, kept out of line so has inlines.
func (k *knownDevices) search(id int32) bool {
	_, ok := slices.BinarySearchFunc(k.rows, id, func(d DeviceExport, id int32) int { return cmp.Compare(d.ID, id) })
	return ok
}

// carveList copies one ascending device list into the shared backing array
// and returns the carved slice (nil when empty), validating order and that
// every listed device exists in the result.
func carveList(backing *[]int32, devs []int32, known *knownDevices, proto string, port uint16) ([]int32, error) {
	if len(devs) == 0 {
		return nil, nil
	}
	prev := int32(-1)
	for _, id := range devs {
		if id <= prev {
			return nil, badf("%s port %d device list not ascending at %d", proto, port, id)
		}
		prev = id
		if !known.has(id) {
			return nil, badf("%s port %d lists unknown device %d", proto, port, id)
		}
	}
	lo := len(*backing)
	*backing = append(*backing, devs...)
	return (*backing)[lo : lo+len(devs) : lo+len(devs)], nil
}

// CheckpointExport is the serializable form of an Incremental correlator's
// complete state: the finalized running Result plus the per-hour
// bookkeeping and the background-sources HLL registers. Restoring it and
// continuing to ingest is indistinguishable from never having stopped.
//
// Deltas are the commits appended to a stored checkpoint since that base
// was written, oldest first; Export never fills them (it captures the
// whole state), a checkpoint reader does, and RestoreIncremental replays
// them on top of the base.
type CheckpointExport struct {
	MaxHours         int
	IngestedHours    []int32 // ascending
	QuarantinedHours []int32 // ascending
	BGPrecision      uint8
	BGRegisters      []uint8
	Result           *ResultExport
	Deltas           []*CheckpointDelta
}

// Export captures the incremental correlator's complete state. The running
// result is finalized first, so the export is taken at a consistent point;
// further Ingest calls on the receiver remain valid.
func (inc *Incremental) Export() *CheckpointExport {
	res := inc.Result()
	cp := &CheckpointExport{
		MaxHours:         len(inc.res.Hourly),
		IngestedHours:    sortedHourList(inc.hours),
		QuarantinedHours: sortedHourList(inc.quarantined),
		BGPrecision:      uint8(inc.bg.Precision()),
		BGRegisters:      inc.bg.AppendRegisters(nil),
		Result:           res.Export(),
	}
	return cp
}

func sortedHourList(set map[int]bool) []int32 {
	if len(set) == 0 {
		return nil
	}
	out := make([]int32, 0, len(set))
	for h := range set {
		out = append(out, int32(h))
	}
	slices.Sort(out)
	return out
}

// IngestedHours returns the hours folded in so far, ascending.
func (inc *Incremental) IngestedHours() []int {
	out := make([]int, 0, len(inc.hours))
	for h := range inc.hours {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// RestoreIncremental rebuilds an incremental correlator from a checkpoint
// previously captured with Export. The checkpoint must have been written
// over the same inventory (device indices are validated against it) and
// with the background-sources HLL's precision, bgPrecision (the running HLL
// must merge with per-hour sketches). Any Deltas are replayed on top of the
// base through the live merge path; a delta the base cannot take (an hour
// out of range or already settled, a device outside the inventory) is
// ErrBadFormat. The restored instance's future behavior — fresh-device
// notifications, merged statistics, Result — is identical to the
// original's had it never stopped.
func (c *Correlator) RestoreIncremental(cp *CheckpointExport) (*Incremental, error) {
	if cp == nil || cp.Result == nil {
		return nil, badf("checkpoint missing result")
	}
	if cp.MaxHours <= 0 {
		return nil, badf("checkpoint maxHours %d must be positive", cp.MaxHours)
	}
	if cp.Result.Hours != cp.MaxHours {
		return nil, badf("checkpoint result spans %d hours, want %d", cp.Result.Hours, cp.MaxHours)
	}
	if err := c.checkShards(); err != nil {
		return nil, err
	}
	if cp.BGPrecision != bgPrecision {
		return nil, fmt.Errorf("correlate: checkpoint sketch precision %d, correlator uses %d",
			cp.BGPrecision, bgPrecision)
	}
	res, err := cp.Result.Result()
	if err != nil {
		return nil, err
	}
	for id := range res.Devices {
		if id < 0 || id >= c.inv.Len() {
			return nil, fmt.Errorf("correlate: checkpoint device %d outside inventory of %d", id, c.inv.Len())
		}
	}
	bg, err := sketch.RestoreHLL(int(cp.BGPrecision), cp.BGRegisters)
	if err != nil {
		return nil, err
	}
	hours, err := restoreHourSet(cp.IngestedHours, cp.MaxHours, "ingested")
	if err != nil {
		return nil, err
	}
	quarantined, err := restoreHourSet(cp.QuarantinedHours, cp.MaxHours, "quarantined")
	if err != nil {
		return nil, err
	}
	for h := range quarantined {
		if hours[h] {
			return nil, badf("checkpoint hour %d both ingested and quarantined", h)
		}
	}
	if res.Ingest.HoursOK != len(hours) {
		return nil, badf("checkpoint counts %d hours ok but lists %d ingested",
			res.Ingest.HoursOK, len(hours))
	}
	inc := &Incremental{
		c:           c,
		res:         res,
		bg:          bg,
		st:          newMergeStateFromResult(res, c.inv.Len()),
		hours:       hours,
		quarantined: quarantined,
	}
	for _, d := range cp.Deltas {
		if err := inc.replay(d); err != nil {
			return nil, err
		}
	}
	inc.unsaved = 0
	return inc, nil
}

func restoreHourSet(list []int32, maxHours int, what string) (map[int]bool, error) {
	set := make(map[int]bool, len(list))
	prev := int32(-1)
	for _, h := range list {
		if h <= prev {
			return nil, badf("checkpoint %s hours not ascending at %d", what, h)
		}
		prev = h
		if int(h) >= maxHours {
			return nil, badf("checkpoint %s hour %d outside [0, %d)", what, h, maxHours)
		}
		set[int(h)] = true
	}
	return set, nil
}
