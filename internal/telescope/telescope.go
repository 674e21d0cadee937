// Package telescope models the network telescope (darknet) itself: a
// routable but unused /8 address space whose inbound packets are aggregated
// into hourly flowtuple files, mirroring the UCSD telescope pipeline the
// paper consumes (Sec. III-A2).
package telescope

import (
	"fmt"

	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/rng"
)

// Telescope is the monitored dark address space.
type Telescope struct {
	prefix netx.Prefix
}

// New returns a telescope over the given prefix (the paper's is a /8 with
// ~16.7 M addresses).
func New(prefix netx.Prefix) *Telescope {
	return &Telescope{prefix: prefix}
}

// Prefix returns the monitored space.
func (t *Telescope) Prefix() netx.Prefix { return t.prefix }

// Contains reports whether addr is a dark address.
func (t *Telescope) Contains(addr netx.Addr) bool { return t.prefix.Contains(addr) }

// RandomAddr draws a uniform dark address, the way a spoofing DoS attacker
// or a random scanner would hit the telescope.
func (t *Telescope) RandomAddr(r *rng.Source) netx.Addr {
	return t.prefix.Nth(r.Uint64n(t.prefix.NumAddrs()))
}

// NumAddrs returns the size of the dark space.
func (t *Telescope) NumAddrs() uint64 { return t.prefix.NumAddrs() }

// CollectorStats summarizes one capture run.
type CollectorStats struct {
	PacketsObserved uint64 // packets accepted into flowtuples
	RecordsWritten  uint64 // aggregated flowtuples persisted
	PacketsDropped  uint64 // packets destined outside the dark space
	HoursWritten    int
}

// Add folds another collector's statistics into s: the capture run of
// several collectors, each writing its own hours of one directory.
func (s *CollectorStats) Add(o CollectorStats) {
	s.PacketsObserved += o.PacketsObserved
	s.RecordsWritten += o.RecordsWritten
	s.PacketsDropped += o.PacketsDropped
	s.HoursWritten += o.HoursWritten
}

// Collector aggregates inbound packets into per-hour flowtuple files.
// Usage is hour-synchronous: BeginHour, any number of Observe calls, then
// EndHour, repeated; EndHour publishes the hour's file, so there is nothing
// to close after the final one. A collector is not safe for concurrent use;
// hours rendered concurrently take one collector each (any number may share
// a directory, since an hour is one file).
type Collector struct {
	telescope *Telescope
	dir       string
	stats     CollectorStats

	hour int
	open bool
	// agg and keys are cleared, not dropped, when an hour ends: the next
	// hour is about as large, and re-growing a map that size is most of
	// what aggregating an hour allocates.
	agg  map[tupleKey]aggVal
	keys []tupleKey // insertion order for deterministic output
}

type tupleKey struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto, flags     uint8
}

type aggVal struct {
	packets uint64
	ttl     uint8
	ipLen   uint16
}

// NewCollector returns a collector writing hourly files into dir.
func NewCollector(t *Telescope, dir string) *Collector {
	return &Collector{telescope: t, dir: dir, agg: make(map[tupleKey]aggVal, 1<<12)}
}

// BeginHour starts aggregation for the given hour index.
func (c *Collector) BeginHour(hour int) error {
	if c.open {
		return fmt.Errorf("telescope: hour %d still open", c.hour)
	}
	if hour < 0 {
		return fmt.Errorf("telescope: negative hour %d", hour)
	}
	c.hour = hour
	c.open = true
	return nil
}

// Observe ingests one flow emission. Packets destined outside the dark
// space are dropped (and counted), exactly as a telescope never sees them.
func (c *Collector) Observe(rec flowtuple.Record) error {
	if !c.open {
		return fmt.Errorf("telescope: Observe outside an open hour")
	}
	if rec.Packets == 0 {
		return nil
	}
	if !c.telescope.Contains(netx.Addr(rec.DstIP)) {
		c.stats.PacketsDropped += uint64(rec.Packets)
		return nil
	}
	k := tupleKey{
		srcIP: rec.SrcIP, dstIP: rec.DstIP,
		srcPort: rec.SrcPort, dstPort: rec.DstPort,
		proto: rec.Protocol, flags: rec.TCPFlags,
	}
	v, exists := c.agg[k]
	if !exists {
		c.keys = append(c.keys, k)
		v = aggVal{ttl: rec.TTL, ipLen: rec.IPLen}
	}
	v.packets += uint64(rec.Packets)
	c.agg[k] = v
	c.stats.PacketsObserved += uint64(rec.Packets)
	return nil
}

// EndHour flushes the hour's aggregates to its flowtuple file. Whether or
// not that succeeds the hour is over: its aggregates are dropped and the
// collector accepts the next BeginHour, so one unwritable hour costs that
// hour and never leaks its flows into another.
func (c *Collector) EndHour() error {
	if !c.open {
		return fmt.Errorf("telescope: EndHour without BeginHour")
	}
	defer func() {
		c.open = false
		clear(c.agg)
		c.keys = c.keys[:0]
	}()
	w, err := flowtuple.Create(flowtuple.HourPath(c.dir, c.hour), uint32(c.hour))
	if err != nil {
		return err
	}
	for _, k := range c.keys {
		v := c.agg[k]
		for v.packets > 0 {
			chunk := v.packets
			const maxChunk = 1<<32 - 1
			if chunk > maxChunk {
				chunk = maxChunk
			}
			rec := flowtuple.Record{
				SrcIP: k.srcIP, DstIP: k.dstIP,
				SrcPort: k.srcPort, DstPort: k.dstPort,
				Protocol: k.proto, TCPFlags: k.flags,
				TTL: v.ttl, IPLen: v.ipLen,
				Packets: uint32(chunk),
			}
			if err := w.Write(rec); err != nil {
				w.Close()
				return err
			}
			c.stats.RecordsWritten++
			v.packets -= chunk
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	c.stats.HoursWritten++
	return nil
}

// Stats returns cumulative collection statistics.
func (c *Collector) Stats() CollectorStats { return c.stats }
