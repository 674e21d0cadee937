package wgen

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/rng"
	"iotscope/internal/telescope"
)

// EmitHour generates all telescope-visible traffic for one hour, invoking
// emit for every flow. Output is deterministic in (scenario seed, hour).
func (g *Generator) EmitHour(hour int, emit func(flowtuple.Record)) error {
	if !g.haveGen {
		return fmt.Errorf("wgen: generator not initialized")
	}
	if hour < 0 || hour >= g.sc.Hours {
		return fmt.Errorf("wgen: hour %d outside window [0, %d)", hour, g.sc.Hours)
	}
	dark := g.sc.DarkPrefix()
	for _, a := range g.actors {
		g.emitActorHour(a, hour, dark, emit)
	}
	g.emitBackground(hour, dark, emit)
	g.emitDiurnal(hour, dark, emit)
	return nil
}

// emitActorHour renders one actor's traffic for the hour.
func (g *Generator) emitActorHour(a *actor, hour int, dark netx.Prefix, outerEmit func(flowtuple.Record)) {
	// Track emissions so the onset hour can guarantee a first appearance
	// even when every Poisson draw lands on zero.
	emitted := false
	emit := func(rec flowtuple.Record) {
		emitted = true
		outerEmit(rec)
	}
	if hour == a.onset {
		defer func() {
			if !emitted {
				fallback := g.root.DeriveN("onset-fallback", uint64(a.id))
				outerEmit(flowtuple.Record{
					SrcIP:    uint32(a.dev.IP),
					DstIP:    uint32(randDark(dark, fallback)),
					SrcPort:  ephemeralPort(fallback),
					DstPort:  tailPort(fallback, g.sc.UDPProbe.TailZipfExponent),
					Protocol: flowtuple.ProtoUDP,
					TTL:      uint8(34 + fallback.Intn(94)),
					IPLen:    uint16(28 + fallback.Intn(60)),
					Packets:  1,
				})
			}
		}()
	}

	// Events ignore the duty cycle (event.go).
	r := g.root.DeriveN("actor-hour", uint64(a.id)<<20|uint64(hour))
	for i := range a.events {
		g.emitEvent(a, &a.events[i], hour, dark, r, emit)
	}

	if hour < a.onset {
		return
	}
	// Regular behaviour gated by the two-level duty cycle; the onset hour
	// is always active so first appearance matches the planted onset.
	if hour != a.onset {
		day := hour / 24
		dayR := g.root.DeriveN("day", uint64(a.id)<<12|uint64(day))
		if !dayR.Bool(a.dayProb) {
			return
		}
		if !r.Bool(a.hourDuty) {
			return
		}
	}

	ttl := uint8(34 + r.Intn(94))

	// TCP service scanning. The per-hour log-normal jitter (mean 1) makes
	// scan volume fluctuate independently of how many devices are active —
	// the paper's r ~ 0 between hourly scanner counts and scan packets.
	jitter := r.LogNormal(-0.5, 1.0)
	for _, m := range a.tcpSvcs {
		svc := g.sc.TCPScan.Services[m.svc]
		mean := m.rate * a.rateMult * jitter * g.httpRamp(svc.Name, hour)
		g.emitSYNs(a, r.Poisson(mean), svc.Ports, ttl, dark, r, emit)
	}
	// Random-port scanning tail. CPS scanners sweep the whole port space
	// (wide hourly port counts, Fig. 9a); consumer scanners concentrate on
	// a Zipf-popular tail (narrow hourly port counts, Fig. 9b).
	if a.tcpRandom > 0 {
		n := r.Poisson(a.tcpRandom * a.rateMult * jitter)
		for i := 0; i < n; i++ {
			var port uint16
			if a.dev.Category == devicedb.CPS {
				port = avoidScriptedPort(uint16(1 + r.Intn(65535)))
			} else {
				// Per-device salt: a consumer scanner concentrates on its
				// own small port set, but the sets are not shared across
				// devices (Table V's tail shows no cross-device random-port
				// cohorts).
				port = avoidScriptedPort(saltedTailPort(r, 0.85, uint32(a.id)))
			}
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    uint32(randDark(dark, r)),
				SrcPort:  ephemeralPort(r),
				DstPort:  port,
				Protocol: flowtuple.ProtoTCP,
				TCPFlags: flowtuple.FlagSYN,
				TTL:      ttl,
				IPLen:    uint16(40 + r.Intn(20)),
				Packets:  1,
			})
		}
	}

	// UDP probing.
	if len(a.udpGroups) > 0 || a.udpTail > 0 {
		g.emitUDP(a, ttl, dark, r, emit)
	}

	// ICMP echo-request scanning.
	if a.icmpRate > 0 {
		n := r.Poisson(a.icmpRate * a.rateMult)
		for i := 0; i < n; i++ {
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    uint32(randDark(dark, r)),
				SrcPort:  uint16(flowtuple.ICMPEchoRequest),
				Protocol: flowtuple.ProtoICMP,
				TTL:      ttl,
				IPLen:    84,
				Packets:  1,
			})
		}
	}

	// Misconfiguration / residual noise.
	if a.otherRate > 0 {
		n := r.Poisson(a.otherRate * a.rateMult)
		for n > 0 {
			chunk := chunkOf(r, n, 2)
			flags := flowtuple.FlagACK
			if r.Bool(0.3) {
				flags = flowtuple.FlagFIN
			}
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    uint32(randDark(dark, r)),
				SrcPort:  ephemeralPort(r),
				DstPort:  uint16(1 + r.Intn(65535)),
				Protocol: flowtuple.ProtoTCP,
				TCPFlags: flags,
				TTL:      ttl,
				IPLen:    uint16(40 + r.Intn(1200)),
				Packets:  chunk,
			})
			n -= int(chunk)
		}
	}
}

// httpRamp returns the HTTP growth factor after the ramp start (Fig. 10's
// gradual organized increase past interval 92).
func (g *Generator) httpRamp(svcName string, hour int) float64 {
	cfg := g.sc.TCPScan
	if svcName != "HTTP" || hour <= cfg.HTTPRampStartHour || cfg.HTTPRampFactor <= 1 {
		return 1
	}
	span := g.sc.Hours - cfg.HTTPRampStartHour
	if span <= 0 {
		return 1
	}
	progress := float64(hour-cfg.HTTPRampStartHour) / float64(span)
	return 1 + (cfg.HTTPRampFactor-1)*progress
}

// emitSYNs sends n TCP SYN probes to random dark destinations on the given
// port set.
func (g *Generator) emitSYNs(a *actor, n int, ports []uint16, ttl uint8,
	dark netx.Prefix, r *rng.Source, emit func(flowtuple.Record)) {
	if len(ports) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		port := ports[0]
		// First port dominates (Telnet 23 vs 2323/23231).
		if len(ports) > 1 && r.Bool(0.25) {
			port = ports[1+r.Intn(len(ports)-1)]
		}
		emit(flowtuple.Record{
			SrcIP:    uint32(a.dev.IP),
			DstIP:    uint32(randDark(dark, r)),
			SrcPort:  ephemeralPort(r),
			DstPort:  port,
			Protocol: flowtuple.ProtoTCP,
			TCPFlags: flowtuple.FlagSYN,
			TTL:      ttl,
			IPLen:    uint16(40 + r.Intn(20)),
			Packets:  1,
		})
	}
}

// emitUDP renders the actor's UDP probing for the hour. Consumer probers
// spray one packet per destination across many destinations; CPS probers
// hammer fewer destinations with more packets and occasionally burst
// across many ports (Fig. 5).
func (g *Generator) emitUDP(a *actor, ttl uint8, dark netx.Prefix,
	r *rng.Source, emit func(flowtuple.Record)) {

	cfg := g.sc.UDPProbe
	burst := 1.0
	if a.dev.Category == devicedb.CPS && r.Bool(cfg.CPSBurstProb) {
		burst = cfg.CPSBurstFactor
	}

	// Draw the hour's packet budget per port first.
	type portBudget struct {
		port uint16
		pkts int
	}
	var plan []portBudget
	total := 0
	for _, m := range a.udpGroups {
		if n := r.Poisson(m.rate * a.rateMult * burst); n > 0 {
			plan = append(plan, portBudget{m.port, n})
			total += n
		}
	}
	if a.udpTail > 0 {
		n := r.Poisson(a.udpTail * a.rateMult * burst)
		for n > 0 {
			pkts := 1
			// CPSPacketsPerDest is zero when the scenario carries no
			// udp-probe block; trickle devices then send one packet per
			// destination instead of a burst.
			if a.dev.Category == devicedb.CPS && cfg.CPSPacketsPerDest > 0 {
				pkts = 1 + r.Intn(2*cfg.CPSPacketsPerDest)
				if pkts > n {
					pkts = n
				}
			}
			plan = append(plan, portBudget{tailPort(r, cfg.TailZipfExponent), pkts})
			total += pkts
			n -= pkts
		}
	}
	if total == 0 {
		return
	}

	if a.dev.Category == devicedb.Consumer {
		// Consumer probers spray one packet per (fresh) destination.
		for _, pb := range plan {
			for i := 0; i < pb.pkts; i++ {
				emit(flowtuple.Record{
					SrcIP:    uint32(a.dev.IP),
					DstIP:    uint32(randDark(dark, r)),
					SrcPort:  ephemeralPort(r),
					DstPort:  pb.port,
					Protocol: flowtuple.ProtoUDP,
					TTL:      ttl,
					IPLen:    uint16(28 + r.Intn(120)),
					Packets:  1,
				})
			}
		}
		return
	}

	// CPS probers hammer a small shared destination pool so their hourly
	// packets-per-destination ratio stays high (Fig. 5a).
	perDest := cfg.CPSPacketsPerDest
	if perDest < 1 {
		perDest = 1
	}
	nDests := (total + perDest - 1) / perDest
	if nDests < 1 {
		nDests = 1
	}
	dests := make([]uint32, nDests)
	for i := range dests {
		dests[i] = uint32(randDark(dark, r))
	}
	di := 0
	for _, pb := range plan {
		pkts := pb.pkts
		for pkts > 0 {
			chunk := perDest
			if pkts < chunk {
				chunk = pkts
			}
			emit(flowtuple.Record{
				SrcIP:    uint32(a.dev.IP),
				DstIP:    dests[di%len(dests)],
				SrcPort:  ephemeralPort(r),
				DstPort:  pb.port,
				Protocol: flowtuple.ProtoUDP,
				TTL:      ttl,
				IPLen:    uint16(28 + r.Intn(120)),
				Packets:  uint32(chunk),
			})
			di++
			pkts -= chunk
		}
	}
}

// tailPort draws a destination port from a Zipf(s) distribution over 65535
// ranks via inverse-CDF (valid for s < 1: CDF(k) ~ (k/N)^(1-s)), mapping
// ranks through a multiplicative hash so tail heavy-hitters are shared
// across devices yet spread over the whole port space. At s = 0.5 the top
// rank draws only ~0.4 % of packets — the long tail of Table IV.
func tailPort(r *rng.Source, s float64) uint16 {
	return saltedTailPort(r, s, 0)
}

// saltedTailPort is tailPort with a per-caller salt so a device can have a
// private concentrated port set instead of the globally shared tail.
func saltedTailPort(r *rng.Source, s float64, salt uint32) uint16 {
	if s >= 0.99 {
		s = 0.99
	}
	u := r.Float64()
	rank := int(65535*math.Pow(u, 1/(1-s))) + 1
	if rank > 65535 {
		rank = 65535
	}
	return uint16(1 + (uint32(rank)*2654435761+salt*2246822519)%65535)
}

// emitBackground renders non-IoT darknet noise the correlator must discard:
// third-party scanners, DDoS victims outside the inventory, and junk.
func (g *Generator) emitBackground(hour int, dark netx.Prefix, emit func(flowtuple.Record)) {
	if len(g.bgPool) == 0 || g.sc.Background.HourlyPackets <= 0 {
		return
	}
	r := g.root.DeriveN("bg", uint64(hour))
	n := r.Poisson(g.sc.Background.HourlyPackets * g.sc.Scale)
	for n > 0 {
		chunk := chunkOf(r, n, 3)
		rec := flowtuple.Record{
			SrcIP:   g.bgPool[r.Intn(len(g.bgPool))],
			DstIP:   uint32(randDark(dark, r)),
			TTL:     uint8(30 + r.Intn(100)),
			Packets: chunk,
		}
		switch draw := r.Float64(); {
		case draw < 0.55: // scanners
			rec.Protocol = flowtuple.ProtoTCP
			rec.TCPFlags = flowtuple.FlagSYN
			rec.SrcPort = ephemeralPort(r)
			rec.DstPort = uint16(1 + r.Intn(65535))
			rec.IPLen = uint16(40 + r.Intn(20))
		case draw < 0.75: // UDP probes
			rec.Protocol = flowtuple.ProtoUDP
			rec.SrcPort = ephemeralPort(r)
			rec.DstPort = uint16(1 + r.Intn(65535))
			rec.IPLen = uint16(28 + r.Intn(400))
		case draw < 0.90: // non-IoT DoS backscatter
			rec.Protocol = flowtuple.ProtoTCP
			rec.TCPFlags = flowtuple.FlagSYN | flowtuple.FlagACK
			rec.SrcPort = 80
			rec.DstPort = ephemeralPort(r)
			rec.IPLen = 44
		default: // misconfiguration junk
			rec.Protocol = flowtuple.ProtoTCP
			rec.TCPFlags = flowtuple.FlagACK
			rec.SrcPort = ephemeralPort(r)
			rec.DstPort = uint16(1 + r.Intn(65535))
			rec.IPLen = uint16(40 + r.Intn(1000))
		}
		emit(rec)
		n -= int(chunk)
	}
}

// emitDiurnal renders one hour of smart-home discovery chatter: short UDP
// datagrams to mDNS/SSDP-style ports from non-inventory sources. The
// correlator must discard all of it, at every point of the cycle.
func (g *Generator) emitDiurnal(hour int, dark netx.Prefix, emit func(flowtuple.Record)) {
	c := g.sc.DiurnalBackground
	if c == nil || len(g.diurnalPool) == 0 {
		return
	}
	r := g.root.DeriveN("ext-diurnal-hour", uint64(hour))
	mean := c.HourlyPackets * g.sc.Scale * diurnalFactor(c, hour)
	n := r.Poisson(mean)
	for i := 0; i < n; i++ {
		emit(flowtuple.Record{
			SrcIP:    g.diurnalPool[r.Intn(len(g.diurnalPool))],
			DstIP:    uint32(randDark(dark, r)),
			SrcPort:  ephemeralPort(r),
			DstPort:  c.Ports[r.Intn(len(c.Ports))],
			Protocol: flowtuple.ProtoUDP,
			TTL:      uint8(30 + r.Intn(100)),
			IPLen:    uint16(60 + r.Intn(240)),
			Packets:  1,
		})
	}
}

// avoidScriptedPort steers incidental random-port probes off port 3387 so
// the BackroomNet row keeps the paper's single-device signature.
func avoidScriptedPort(p uint16) uint16 {
	if p == 3387 {
		return 3388
	}
	return p
}

func randDark(dark netx.Prefix, r *rng.Source) netx.Addr {
	return dark.Nth(r.Uint64n(dark.NumAddrs()))
}

func ephemeralPort(r *rng.Source) uint16 {
	return uint16(1024 + r.Intn(64512))
}

// chunkOf draws one record's packet count: 1 to k, and no more than the n
// packets still owed.
func chunkOf(r *rng.Source, n, k int) uint32 {
	return uint32(min(1+r.Intn(k), n))
}

// RunStats summarizes a full dataset render.
type RunStats struct {
	Collector telescope.CollectorStats
	Hours     int
}

// RenderWorkers is how many hours Run renders at once: one per processor
// the Go scheduler may use, never more than there are hours. It is what the
// machine gives, not a setting.
func RenderWorkers(hours int) int { return min(runtime.GOMAXPROCS(0), hours) }

// Run renders the full scenario window into dir as hourly flowtuple files.
//
// Hours are independent — every RNG stream is derived from (actor, hour),
// EmitHour only reads the generator, and an hour is one file — so they are
// rendered on RenderWorkers(Hours) workers, each owning one collector and
// claiming the next hour in ascending order. With one worker that is the
// serial loop; there is no other path. The files and the returned stats
// are the same at any worker count. Only the order in which hours land is
// not: with w workers, hour k+w-1 can reach dir before hour k does
// (docs/STREAMING.md §Tailing says why no reader can tell). Peak memory is
// w × one hour's aggregate.
//
// The first failed hour or a cancelled ctx stops the claiming of further
// hours; hours already claimed run to their end, which is an atomic publish
// or a removed ".tmp", so no partial file outlives Run. Because every hour
// below a claimed one was itself claimed and finished, the lowest failing
// hour is the same one a serial render would have stopped at, and its error
// is the one returned. A cancellation that left hours unrendered returns
// ctx.Err().
func (g *Generator) Run(ctx context.Context, dir string) (RunStats, error) {
	hours := g.sc.Hours
	tel := telescope.New(g.sc.DarkPrefix())
	var (
		next atomic.Int64 // the next unclaimed hour
		stop atomic.Bool  // an hour failed: claim no more
		wg   sync.WaitGroup
	)
	errs := make([]error, hours) // by hour; each written by the worker that claimed it
	stats := make([]telescope.CollectorStats, RenderWorkers(hours))
	for w := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			col := telescope.NewCollector(tel, dir)
			for !stop.Load() && ctx.Err() == nil {
				h := int(next.Add(1)) - 1
				if h >= hours {
					break
				}
				if errs[h] = g.renderHour(col, h); errs[h] != nil {
					stop.Store(true)
					break
				}
			}
			stats[w] = col.Stats()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return RunStats{}, err
		}
	}
	var total telescope.CollectorStats
	for _, st := range stats {
		total.Add(st)
	}
	if total.HoursWritten < hours {
		return RunStats{}, ctx.Err()
	}
	return RunStats{Collector: total, Hours: hours}, nil
}

// renderHour aggregates one hour's emissions in col and publishes its file.
func (g *Generator) renderHour(col *telescope.Collector, hour int) error {
	if err := col.BeginHour(hour); err != nil {
		return err
	}
	var obsErr error
	if err := g.EmitHour(hour, func(rec flowtuple.Record) {
		if obsErr == nil {
			obsErr = col.Observe(rec)
		}
	}); err != nil {
		return err
	}
	if obsErr != nil {
		return obsErr
	}
	return col.EndHour()
}
