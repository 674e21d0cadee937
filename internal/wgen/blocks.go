package wgen

import (
	"fmt"
	"math"

	"iotscope/internal/devicedb"
	"iotscope/internal/rng"
)

// The paper's workload is one fixed 143-hour trace; the blocks below open
// workload shapes from related work so the pipeline can be tested against
// behaviours the paper never exercised. All populations and aggregate
// volumes are full-scale (multiplied by Scenario.Scale at resolve time);
// per-device behaviour is scale-invariant, matching the rest of wgen.
//
// Each block enrols its own cohort once the paper population is built
// (New's extension phase): free devices from one draw (Generator.enrol),
// each carrying one event. A nil block — the kind is absent — enrols
// nothing, so scenarios without it are bit-for-bit unaffected.

// MiraiWaveConfig scripts a Mirai-style worm propagation wave (Choi et
// al., PAPERS.md): infections follow a logistic ramp, each bot floods
// telnet-style ports for a bounded lifetime, then churns out — the
// endpoint-churn pattern real IoT botnets show.
type MiraiWaveConfig struct {
	// Devices is the full-scale infected population.
	Devices int
	// StartHour is when patient zero appears; RampHours is how long the
	// logistic infection ramp takes to saturate.
	StartHour int
	RampHours int
	// LifetimeMinHours/MaxHours bound each bot's active lifetime before it
	// churns out (reboot, disinfection, re-NAT).
	LifetimeMinHours int
	LifetimeMaxHours int
	// PacketsPerHour is each bot's scan intensity while alive
	// (scale-invariant, like all per-device behaviour).
	PacketsPerHour float64
	// Ports are the scanned ports; the first dominates (telnet 23).
	Ports []uint16
}

// Kind returns "mirai-wave".
func (c *MiraiWaveConfig) Kind() string { return KindMiraiWave }
func (c *MiraiWaveConfig) apply(sc *Scenario) {
	v := *c
	sc.MiraiWave = &v
}
func (c *MiraiWaveConfig) validate(path string, bad *badConfig) {
	positive(path+".Devices", c.Devices, bad)
	nonNegative(path+".StartHour", c.StartHour, bad)
	positive(path+".RampHours", c.RampHours, bad)
	if c.LifetimeMinHours <= 0 || c.LifetimeMaxHours < c.LifetimeMinHours {
		bad.addf(path+".LifetimeMinHours", "bad lifetime bounds [%d, %d]", c.LifetimeMinHours, c.LifetimeMaxHours)
	}
	positive(path+".PacketsPerHour", c.PacketsPerHour, bad)
	validatePorts(path+".Ports", c.Ports, bad)
}

// enrol infects consumer devices along a logistic ramp; each bot scans
// for a bounded lifetime.
func (c *MiraiWaveConfig) enrol(g *Generator) error {
	if c == nil {
		return nil
	}
	// Steepness 8/RampHours puts ~96 % of infections inside the ramp.
	k := 8.0 / float64(c.RampHours)
	mid := float64(c.StartHour) + float64(c.RampHours)/2
	err := g.enrol(KindMiraiWave, devicedb.Consumer, c.Devices, func(r *rng.Source, i, n int) (event, bool) {
		// Quantile of the logistic CDF, jittered so infection times do not
		// land on a lattice.
		u := (float64(i) + 0.5) / float64(n)
		t := mid + math.Log(u/(1-u))/k + r.Float64() - 0.5
		infect := max(int(math.Round(t)), c.StartHour)
		if infect >= g.sc.Hours {
			// Infected after the capture window closes: invisible, skip.
			return event{}, false
		}
		life := c.LifetimeMinHours + r.Intn(c.LifetimeMaxHours-c.LifetimeMinHours+1)
		return event{kind: evScan, from: infect, to: min(infect+life, g.sc.Hours),
			rate: c.PacketsPerHour, ports: c.Ports}, true
	})
	if err == nil && len(g.truth.Cohorts[KindMiraiWave]) == 0 {
		return fmt.Errorf("wgen: %s: every infection fell outside the %d-hour window", KindMiraiWave, g.sc.Hours)
	}
	return err
}

// ServiceShare is one service port carrying a share of a cohort's
// packets: a reflector protocol in a UDP amplification attack (the source
// port identifies the abused service: NTP 123, DNS 53, SSDP 1900), or an
// industrial protocol in a CPS campaign.
type ServiceShare struct {
	Name string
	Port uint16
	// Share is the service's share of the cohort's packets (%).
	Share float64
}

// UDPAmplificationConfig models the victim-side view of a UDP
// amplification attack: compromised devices abused as reflectors spray
// large UDP responses whose spoofed targets partially land in the
// telescope. Distinct from BackscatterConfig: these are UDP payloads from
// well-known service source ports, not TCP SYN-ACK/RST replies.
type UDPAmplificationConfig struct {
	// Reflectors is the full-scale abused-device population.
	Reflectors int
	// HourlyPackets is the full-scale aggregate reflected volume per hour.
	HourlyPackets float64
	Services      []ServiceShare
	// MinLen/MaxLen bound the amplified payload sizes (bytes).
	MinLen int
	MaxLen int
}

// Kind returns "udp-amplification".
func (c *UDPAmplificationConfig) Kind() string { return KindUDPAmplification }
func (c *UDPAmplificationConfig) apply(sc *Scenario) {
	v := *c
	sc.UDPAmplification = &v
}
func (c *UDPAmplificationConfig) validate(path string, bad *badConfig) {
	positive(path+".Reflectors", c.Reflectors, bad)
	positive(path+".HourlyPackets", c.HourlyPackets, bad)
	validateServices(path+".Services", c.Services, bad)
	if c.MinLen < 28 || c.MaxLen < c.MinLen {
		bad.addf(path+".MinLen", "bad payload bounds [%d, %d]", c.MinLen, c.MaxLen)
	}
	// A record's IPLen is 16 bits; a longer payload would wrap.
	if c.MaxLen > 65535 {
		bad.addf(path+".MaxLen", "%d above 65535", c.MaxLen)
	}
}

// enrol makes always-on consumer reflectors answering on well-known
// service source ports.
func (c *UDPAmplificationConfig) enrol(g *Generator) error {
	if c == nil {
		return nil
	}
	ports, cum := serviceTable(c.Services)
	return g.enrol(KindUDPAmplification, devicedb.Consumer, c.Reflectors, func(r *rng.Source, _, n int) (event, bool) {
		// Reflectors come under fire at staggered points of day one.
		return event{kind: evReflect, from: r.Intn(min(24, g.sc.Hours)), to: g.sc.Hours,
			rate: c.HourlyPackets * g.sc.Scale / float64(n), ports: ports, cum: cum}, true
	})
}

// StealthScanConfig plants a slow, deliberately sub-threshold scan: a
// small cohort probes one port at a handful of packets per hour — visible
// to the correlator, but below any evidence-bundle notification floor. The
// fixture for "the pipeline correctly ignores what it should".
type StealthScanConfig struct {
	// Scanners is the full-scale cohort size.
	Scanners int
	// Port is the single scanned port.
	Port uint16
	// PacketsPerHour is each scanner's intensity (scale-invariant; keep it
	// low — that is the point).
	PacketsPerHour float64
}

// Kind returns "stealth-scan".
func (c *StealthScanConfig) Kind() string { return KindStealthScan }
func (c *StealthScanConfig) apply(sc *Scenario) {
	v := *c
	sc.StealthScan = &v
}
func (c *StealthScanConfig) validate(path string, bad *badConfig) {
	positive(path+".Scanners", c.Scanners, bad)
	if c.Port == 0 {
		bad.addf(path+".Port", "port 0")
	}
	positive(path+".PacketsPerHour", c.PacketsPerHour, bad)
}

// enrol starts the slow scanners at staggered points of day one.
func (c *StealthScanConfig) enrol(g *Generator) error {
	if c == nil {
		return nil
	}
	ports := []uint16{c.Port}
	return g.enrol(KindStealthScan, devicedb.Consumer, c.Scanners, func(r *rng.Source, _, _ int) (event, bool) {
		return event{kind: evScan, from: r.Intn(min(24, g.sc.Hours)), to: g.sc.Hours,
			rate: c.PacketsPerHour, ports: ports}, true
	})
}

// CPSCampaignConfig scripts a coordinated industrial-protocol scanning
// campaign (Modbus 502, BACnet/IP 47808) carried out by CPS devices inside
// a bounded window — the protocol-specific campaign shape the paper's
// BackroomNet narrative hints at, generalized.
type CPSCampaignConfig struct {
	// Devices is the full-scale participating CPS population.
	Devices int
	// StartHour/DurationHours bound the campaign window; DurationHours 0
	// means "until the end of the capture".
	StartHour     int
	DurationHours int
	// HourlyPackets is the full-scale aggregate campaign volume per hour.
	HourlyPackets float64
	Services      []ServiceShare
}

// Kind returns "cps-campaign".
func (c *CPSCampaignConfig) Kind() string { return KindCPSCampaign }
func (c *CPSCampaignConfig) apply(sc *Scenario) {
	v := *c
	sc.CPSCampaign = &v
}
func (c *CPSCampaignConfig) validate(path string, bad *badConfig) {
	positive(path+".Devices", c.Devices, bad)
	nonNegative(path+".StartHour", c.StartHour, bad)
	nonNegative(path+".DurationHours", c.DurationHours, bad)
	positive(path+".HourlyPackets", c.HourlyPackets, bad)
	validateServices(path+".Services", c.Services, bad)
}

// enrol puts CPS devices into the windowed industrial campaign.
func (c *CPSCampaignConfig) enrol(g *Generator) error {
	if c == nil {
		return nil
	}
	if c.StartHour >= g.sc.Hours {
		return fmt.Errorf("wgen: %s: StartHour %d outside the %d-hour window", KindCPSCampaign, c.StartHour, g.sc.Hours)
	}
	to := g.sc.Hours
	if c.DurationHours > 0 && c.StartHour+c.DurationHours < to {
		to = c.StartHour + c.DurationHours
	}
	ports, cum := serviceTable(c.Services)
	return g.enrol(KindCPSCampaign, devicedb.CPS, c.Devices, func(_ *rng.Source, _, n int) (event, bool) {
		return event{kind: evCampaign, from: c.StartHour, to: to,
			rate: c.HourlyPackets * g.sc.Scale / float64(n), ports: ports, cum: cum}, true
	})
}

// DiurnalBackgroundConfig adds smart-home background chatter (Mainuddin et
// al., PAPERS.md) from sources OUTSIDE the device inventory, modulated by a
// day/night cycle: mDNS/SSDP-style discovery noise that leaks toward the
// telescope and that correlation must keep discarding even though its
// volume breathes with the hour of day.
type DiurnalBackgroundConfig struct {
	// HourlyPackets is the full-scale volume at the diurnal peak.
	HourlyPackets float64
	// Sources is the full-scale distinct source population.
	Sources int
	// PeakHour is the hour-of-day (0..23) of maximum volume.
	PeakHour int
	// MinFactor is the trough volume as a fraction of the peak, in [0, 1].
	MinFactor float64
	// Ports are the destination ports the chatter lands on (mDNS 5353,
	// SSDP 1900, WS-Discovery 3702).
	Ports []uint16
}

// Kind returns "diurnal-background".
func (c *DiurnalBackgroundConfig) Kind() string { return KindDiurnalBackground }
func (c *DiurnalBackgroundConfig) apply(sc *Scenario) {
	v := *c
	sc.DiurnalBackground = &v
}
func (c *DiurnalBackgroundConfig) validate(path string, bad *badConfig) {
	positive(path+".HourlyPackets", c.HourlyPackets, bad)
	positive(path+".Sources", c.Sources, bad)
	if c.PeakHour < 0 || c.PeakHour > 23 {
		bad.addf(path+".PeakHour", "%d outside [0, 23]", c.PeakHour)
	}
	fraction(path+".MinFactor", c.MinFactor, bad)
	validatePorts(path+".Ports", c.Ports, bad)
}

// enrol draws no devices: the chatter comes from a pre-drawn source pool
// outside the inventory, like the flat background's, and is emitted with
// a day/night cycle (emitDiurnal).
func (c *DiurnalBackgroundConfig) enrol(g *Generator) error {
	if c == nil {
		return nil
	}
	g.diurnalPool = g.sourcePool(g.root.Derive("ext", KindDiurnalBackground, "pool"), c.Sources)
	return nil
}

// diurnalFactor is the day/night volume modulation: 1 at PeakHour, falling
// on a cosine to MinFactor twelve hours away.
func diurnalFactor(c *DiurnalBackgroundConfig, hour int) float64 {
	phase := 2 * math.Pi * float64(hour%24-c.PeakHour) / 24
	return c.MinFactor + (1-c.MinFactor)*(0.5*(1+math.Cos(phase)))
}
