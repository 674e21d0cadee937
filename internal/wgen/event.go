package wgen

import (
	"fmt"

	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/rng"
)

// event is one duty-free emission: traffic an actor renders on its own
// hours, outside the two-level duty cycle. The narrated events happen, a
// victim draws fire on its attackers' schedule, and an extension cohort's
// temporal shape IS the behaviour under test. An actor's events emit in
// the order they were attached: a paper actor's one scripted event, then
// its baseline victim schedule; an extension actor carries only its own.
type event struct {
	kind eventKind
	// The active hours: sched's keys, each with its mean packets, or, when
	// sched is nil, every hour of [from, to) at rate.
	sched    map[int]float64
	from, to int
	rate     float64
	// ports are the scanned ports (the first dominates) or, with cum, the
	// share-weighted service ports.
	ports []uint16
	cum   []float64
}

type eventKind uint8

const (
	evSurge       eventKind = iota + 1 // scripted SYN surge: BackroomNet, the SSH spikes
	evSweep                            // the interval-119 camera port sweep
	evBackscatter                      // a DoS victim's replies
	evScan                             // mirai-wave, stealth-scan
	evCampaign                         // cps-campaign
	evReflect                          // udp-amplification
)

// at reports whether the event is active in hour, and its mean packets.
func (ev *event) at(hour int) (float64, bool) {
	if ev.sched != nil {
		v, ok := ev.sched[hour]
		return v, ok
	}
	return ev.rate, hour >= ev.from && hour < ev.to
}

// extension is an extension block's hook into New: it enrols its cohort
// after the paper population is complete, and a nil block enrols nothing.
type extension interface {
	enrol(g *Generator) error
}

// enrol plants one extension cohort: up to devices (full-scale) devices of
// cat that no actor holds yet, shuffled on the kind's own stream, each
// becoming an actor with the one event plant returns for the i-th of n
// (false: the device stays out). Duty parameters are pinned to 1 so the
// actor's ActivityWeight is representative; with no baseline rates,
// nothing in the duty-cycled path fires.
func (g *Generator) enrol(kind string, cat devicedb.Category, devices int,
	plant func(r *rng.Source, i, n int) (event, bool)) error {
	var free []int
	for i, d := range g.inv.All() {
		if d.Category == cat && g.byID[i] == nil {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return fmt.Errorf("wgen: %s: no %s devices left to enroll", kind, cat)
	}
	shuffleInts(g.root.Derive("ext-pool", kind), free)
	free = free[:min(scaleCount(devices, g.sc.Scale), len(free))]
	r := g.root.Derive("ext", kind)
	for i, id := range free {
		ev, ok := plant(r, i, len(free))
		if !ok {
			continue
		}
		a := &actor{id: id, dev: g.inv.At(id), onset: ev.from,
			dayProb: 1, hourDuty: 1, rateMult: 1, events: []event{ev}}
		g.actors = append(g.actors, a)
		g.byID[id] = a
		if g.truth.Cohorts == nil {
			g.truth.Cohorts = make(map[string][]int)
		}
		g.truth.Cohorts[kind] = append(g.truth.Cohorts[kind], id)
	}
	return nil
}

// emitEvent renders one event's traffic for the hour, if it is active. It
// shares the actor-hour stream with the rest of emitActorHour, which is
// safe for extension events: extension actors never existed in scenarios
// without extension blocks, so no pre-existing stream is perturbed.
func (g *Generator) emitEvent(a *actor, ev *event, hour int, dark netx.Prefix,
	r *rng.Source, emit func(flowtuple.Record)) {

	pkts, active := ev.at(hour)
	if !active {
		return
	}
	switch ev.kind {
	case evSurge:
		n := r.Poisson(pkts)
		g.emitSYNs(a, n, ev.ports, uint8(50+r.Intn(40)), dark, r, emit)
	case evSweep:
		dests := make([]netx.Addr, g.sc.TCPScan.PortSpikeDests)
		for i := range dests {
			dests[i] = randDark(dark, r)
		}
		ports := r.SampleK(65535, g.sc.TCPScan.PortSpikePorts)
		ttl := uint8(60 + r.Intn(30))
		for i, p := range ports {
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    uint32(dests[i%len(dests)]),
				SrcPort:  ephemeralPort(r),
				DstPort:  avoidScriptedPort(uint16(p + 1)),
				Protocol: flowtuple.ProtoTCP,
				TCPFlags: flowtuple.FlagSYN,
				TTL:      ttl,
				IPLen:    44,
				Packets:  1,
			})
		}
	case evBackscatter:
		// SYN-ACKs, RSTs, and ICMP replies to spoofed (dark) clients,
		// sourced from the victim's service port. A zero hour (only an
		// underflowed event rate makes one) draws nothing.
		if pkts <= 0 {
			return
		}
		n := r.Poisson(pkts)
		ttl := uint8(40 + r.Intn(80))
		src := devicePort(a.dev)
		for n > 0 {
			chunk := chunkOf(r, n, 4)
			rec := flowtuple.Record{
				SrcIP:   uint32(a.dev.IP),
				DstIP:   uint32(randDark(dark, r)),
				TTL:     ttl,
				IPLen:   uint16(40 + r.Intn(24)),
				Packets: chunk,
			}
			switch draw := r.Float64(); {
			case draw < 0.70:
				rec.Protocol = flowtuple.ProtoTCP
				rec.TCPFlags = flowtuple.FlagSYN | flowtuple.FlagACK
				rec.SrcPort = src
				rec.DstPort = ephemeralPort(r)
			case draw < 0.90:
				rec.Protocol = flowtuple.ProtoTCP
				rec.TCPFlags = flowtuple.FlagRST | flowtuple.FlagACK
				rec.SrcPort = src
				rec.DstPort = ephemeralPort(r)
			default:
				rec.Protocol = flowtuple.ProtoICMP
				rec.SrcPort = uint16(backscatterICMP[r.Intn(len(backscatterICMP))])
				rec.IPLen = 56
			}
			emit(rec)
			n -= int(chunk)
		}
	case evScan:
		ttl := uint8(34 + r.Intn(94))
		g.emitSYNs(a, r.Poisson(pkts), ev.ports, ttl, dark, r, emit)
	case evCampaign:
		ttl := uint8(40 + r.Intn(60))
		n := r.Poisson(pkts)
		for i := 0; i < n; i++ {
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    uint32(randDark(dark, r)),
				SrcPort:  ephemeralPort(r),
				DstPort:  drawService(r, ev.ports, ev.cum),
				Protocol: flowtuple.ProtoTCP,
				TCPFlags: flowtuple.FlagSYN,
				TTL:      ttl,
				IPLen:    uint16(40 + r.Intn(20)),
				Packets:  1,
			})
		}
	case evReflect:
		c := g.sc.UDPAmplification
		ttl := uint8(40 + r.Intn(80))
		n := r.Poisson(pkts)
		for n > 0 {
			chunk := chunkOf(r, n, 3)
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    uint32(randDark(dark, r)),
				SrcPort:  drawService(r, ev.ports, ev.cum),
				DstPort:  ephemeralPort(r),
				Protocol: flowtuple.ProtoUDP,
				TTL:      ttl,
				IPLen:    uint16(c.MinLen + r.Intn(c.MaxLen-c.MinLen+1)),
				Packets:  chunk,
			})
			n -= int(chunk)
		}
	}
}

var backscatterICMP = []uint8{
	flowtuple.ICMPEchoReply,
	flowtuple.ICMPDestUnreach,
	flowtuple.ICMPSourceQuench,
	flowtuple.ICMPRedirect,
	flowtuple.ICMPTimeExceeded,
	flowtuple.ICMPParamProblem,
	flowtuple.ICMPTimestampReply,
}

// serviceTable builds the (port, cumulative probability) lookup for
// share-weighted service draws.
func serviceTable(services []ServiceShare) ([]uint16, []float64) {
	ports := make([]uint16, len(services))
	cum := make([]float64, len(services))
	total := 0.0
	for i, s := range services {
		ports[i] = s.Port
		total += s.Share
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return ports, cum
}

func drawService(r *rng.Source, ports []uint16, cum []float64) uint16 {
	u := r.Float64()
	for i, c := range cum {
		if u <= c {
			return ports[i]
		}
	}
	return ports[len(ports)-1]
}
