package campaign

import (
	"cmp"
	"slices"

	"iotscope/internal/correlate"
)

// Tracker keeps the scanners' port profiles current across sealed windows,
// so that a seal costs what the hour touched instead of a pass over every
// port ever scanned. It is a pure function of the Result it has observed:
// a tracker built from a result and one that followed the same result
// window by window report identical campaigns.
//
// Only the profiles persist. Components are recomputed from them on every
// Campaigns call, because linkage is not monotone: a port's even-split
// weight moves whenever its packets or its device count do, so a pair above
// the similarity threshold after one window can fall below it after the
// next, and a union-find kept across windows could not un-link them.
//
// A Tracker is not safe for concurrent use.
type Tracker struct {
	cfg Config
	// share is each scanned port's packets split evenly over its scanners,
	// at least 1, in the order the tracker met them behind a zero entry for
	// every port nobody scans; portAt is the dense port → share index. The
	// per-port aggregate does not retain per-device packet splits, and for
	// campaign detection only the *membership* structure matters, which
	// even-split weights preserve.
	portAt []uint32
	share  []uint64
	slot   []int32 // device ID → 1 + its index in devs; 0 before its first cell
	devs   []scanner
	// profiled lists the devices that currently have a profile, ascending.
	profiled []int32
	dirty    []int32  // indices into devs awaiting reprofile
	keys     []uint64 // Observe's scratch: gained keys as device<<16|port
}

// cell is one port of a device's scan list. n counts the port's device
// lists that name the device: a device in both realms of one port is one
// cell carrying twice the port's share.
type cell struct {
	port uint16
	n    uint8
}

// scanner is one device's tracked state: every port it scans, ascending,
// and the significant-port profile last derived from them.
type scanner struct {
	cells    []cell
	prof     deviceProfile
	profiled bool // prof is a usable profile and the device is in Tracker.profiled
	dirty    bool
}

// NewTracker bulk-loads a tracker from a correlation result: one counting
// sort of every (device, port) cell into a shared slab, so a full build
// makes a handful of allocations however many devices scan.
func NewTracker(res *correlate.Result, cfg Config) *Tracker {
	t := &Tracker{
		cfg:    cfg.withDefaults(),
		portAt: make([]uint32, 1<<16),
		share:  make([]uint64, 1, 1+len(res.TCPScanPorts)),
	}

	// count[id] is device id's cells, counting one per list entry. Counting
	// needs no order, but the ascending walk reads the aggregates closer to
	// the order they were allocated in than map order does, which wins back
	// what laying the table out twice costs (BenchmarkCampaignDetect).
	var count []int32
	total, scanners := 0, 0
	correlate.WalkTCPPorts(res.TCPScanPorts, func(port uint16, agg *correlate.TCPPortAgg) {
		t.portAt[port] = uint32(len(t.share))
		t.share = append(t.share, portShare(agg))
		for _, list := range [][]int32{agg.DevicesConsumer, agg.DevicesCPS} {
			for _, id := range list {
				if int(id) >= len(count) {
					count = append(count, make([]int32, int(id)+1-len(count))...)
				}
				if count[id] == 0 {
					scanners++
				}
				count[id]++
			}
			total += len(list)
		}
	})
	// Carve the slab, a device's cells in the order its ID sorts, and size
	// one more for the profiles: no device keeps more significant ports
	// than it has cells or than MaxProfilePorts. Each count gives way to
	// the device's slot as it is read.
	t.slot = count
	t.devs = make([]scanner, 0, scanners)
	cells := make([]cell, total)
	nprof := 0
	for id, n := range count {
		if n == 0 {
			continue
		}
		t.devs = append(t.devs, scanner{cells: cells[:0:n], prof: deviceProfile{id: id}})
		t.slot[id] = int32(len(t.devs))
		cells = cells[n:]
		nprof += min(int(n), t.cfg.MaxProfilePorts)
	}
	// Ports ascending, so every device's cells land sorted and the second
	// realm's entry for a port finds the first's at the tail.
	correlate.WalkTCPPorts(res.TCPScanPorts, func(port uint16, agg *correlate.TCPPortAgg) {
		for _, list := range [][]int32{agg.DevicesConsumer, agg.DevicesCPS} {
			for _, id := range list {
				d := &t.devs[t.slot[id]-1]
				if n := len(d.cells); n > 0 && d.cells[n-1].port == port {
					d.cells[n-1].n++
					continue
				}
				d.cells = append(d.cells, cell{port, 1})
			}
		}
	})
	profiles := make([]portWeight, nprof)
	for i := range t.devs {
		d := &t.devs[i]
		n := min(len(d.cells), t.cfg.MaxProfilePorts)
		d.prof.ports, profiles = profiles[:0:n], profiles[n:]
		if t.reprofile(d) {
			t.profiled = append(t.profiled, int32(d.prof.id))
		}
	}
	return t
}

// portShare is the weight one device list entry of the port carries.
func portShare(agg *correlate.TCPPortAgg) uint64 {
	n := len(agg.DevicesConsumer) + len(agg.DevicesCPS)
	if n == 0 {
		return 0
	}
	return max(agg.Packets/uint64(n), 1)
}

// Observe brings the tracker up to date with one sealed window. res is the
// running result after the seal, ports the TCP scan ports the window
// touched and gained the port<<32|device keys it added to their device
// lists (correlate.WindowStats carries both). Ports outside ports must be
// as the tracker last saw them. The work is the touched ports, the device
// lists of those whose share moved, and those devices' own cells.
func (t *Tracker) Observe(res *correlate.Result, ports []uint16, gained []uint64) {
	// Device-major order makes a new scanner's cells arrive ascending, each
	// insert an append, however many ports its first hour sweeps.
	t.keys = t.keys[:0]
	for _, k := range gained {
		t.keys = append(t.keys, (k&0xffffffff)<<16|k>>32)
	}
	slices.Sort(t.keys)
	for _, k := range t.keys {
		id, port := int(k>>16), uint16(k)
		if id >= len(t.slot) {
			t.slot = append(t.slot, make([]int32, id+1-len(t.slot))...)
		}
		if t.slot[id] == 0 {
			t.devs = append(t.devs, scanner{prof: deviceProfile{id: id}})
			t.slot[id] = int32(len(t.devs))
		}
		i := t.slot[id] - 1
		d := &t.devs[i]
		// One cell per (device, port), whichever realms list the device.
		at, found := slices.BinarySearchFunc(d.cells, port, func(c cell, p uint16) int {
			return cmp.Compare(c.port, p)
		})
		if found {
			d.cells[at].n++
		} else {
			d.cells = slices.Insert(d.cells, at, cell{port, 1})
		}
		t.markDirty(i)
	}

	for _, port := range ports {
		agg := res.TCPScanPorts[port]
		if agg == nil {
			continue
		}
		at := t.portAt[port]
		if at == 0 {
			at = uint32(len(t.share))
			t.portAt[port] = at
			t.share = append(t.share, 0)
		}
		share := portShare(agg)
		if share == t.share[at] {
			continue
		}
		t.share[at] = share
		for _, list := range [][]int32{agg.DevicesConsumer, agg.DevicesCPS} {
			for _, id := range list {
				t.markDirty(t.slot[id] - 1)
			}
		}
	}

	for _, i := range t.dirty {
		d := &t.devs[i]
		d.dirty = false
		was := d.profiled
		if now := t.reprofile(d); now != was {
			id := int32(d.prof.id)
			at, _ := slices.BinarySearch(t.profiled, id)
			if now {
				t.profiled = slices.Insert(t.profiled, at, id)
			} else {
				t.profiled = slices.Delete(t.profiled, at, at+1)
			}
		}
	}
	t.dirty = t.dirty[:0]
}

func (t *Tracker) markDirty(i int32) {
	if d := &t.devs[i]; !d.dirty {
		d.dirty = true
		t.dirty = append(t.dirty, i)
	}
}

// reprofile re-derives the device's significant-port profile from its cells
// and the current shares — the one place a profile is built — and reports
// whether it has one: a device with no significant port, or with more than
// MaxProfilePorts of them (a sprayer), has none.
func (t *Tracker) reprofile(d *scanner) bool {
	var total uint64
	for _, c := range d.cells {
		total += uint64(c.n) * t.share[t.portAt[c.port]]
	}
	floor := t.cfg.MinPortShare * float64(total)
	p := &d.prof
	p.ports, p.total = p.ports[:0], 0
	d.profiled = false
	for _, c := range d.cells {
		w := uint64(c.n) * t.share[t.portAt[c.port]]
		if float64(w) < floor {
			continue
		}
		if len(p.ports) == t.cfg.MaxProfilePorts {
			return false
		}
		p.ports = append(p.ports, portWeight{c.port, w})
		p.total += w
	}
	d.profiled = len(p.ports) > 0
	return d.profiled
}

// Campaigns clusters the current profiles. The result equals Detect's on
// the result the tracker has observed, field for field.
func (t *Tracker) Campaigns() []Campaign {
	profiles := make([]*deviceProfile, len(t.profiled))
	for i, id := range t.profiled {
		profiles[i] = &t.devs[t.slot[id]-1].prof
	}
	return cluster(profiles, t.cfg)
}
