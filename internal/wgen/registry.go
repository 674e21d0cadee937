package wgen

import (
	"fmt"
	"sort"
)

// Registered actor kinds. Each kind names a generator: a parameter block
// type plus the emission logic it drives. Scenario files compose these
// instead of editing Go.
const (
	KindTCPScan           = "tcp-scan"
	KindUDPProbe          = "udp-probe"
	KindICMP              = "icmp"
	KindBackscatter       = "backscatter"
	KindOther             = "other"
	KindBackground        = "background"
	KindMiraiWave         = "mirai-wave"
	KindUDPAmplification  = "udp-amplification"
	KindStealthScan       = "stealth-scan"
	KindCPSCampaign       = "cps-campaign"
	KindDiurnalBackground = "diurnal-background"
)

// Block is one actor block's parameter set: it validates itself and knows
// how to apply itself to a Scenario. Parameter types live in this package;
// external packages compose blocks through scenario files.
type Block interface {
	// Kind returns the registered kind name the block parameterizes.
	Kind() string
	apply(sc *Scenario)
	validate(path string, bad *badConfig)
}

// KindSpec describes one registered generator kind.
type KindSpec struct {
	Kind string
	// Version is the generator's behaviour version; it is recorded in every
	// run manifest so a dataset can name the exact generator code paths
	// that produced it.
	Version int
	// About is a one-line description for listings.
	About string
	// New allocates an empty parameter block for decoding.
	New func() Block
}

var kindRegistry = map[string]KindSpec{}

func registerKind(s KindSpec) {
	if s.Kind == "" || s.New == nil {
		panic("wgen: incomplete kind spec")
	}
	if _, dup := kindRegistry[s.Kind]; dup {
		panic(fmt.Sprintf("wgen: duplicate actor kind %q", s.Kind))
	}
	kindRegistry[s.Kind] = s
}

// LookupKind returns the spec for a registered actor kind.
func LookupKind(kind string) (KindSpec, bool) {
	s, ok := kindRegistry[kind]
	return s, ok
}

// Kinds lists every registered generator kind, sorted by name.
func Kinds() []KindSpec {
	out := make([]KindSpec, 0, len(kindRegistry))
	for _, s := range kindRegistry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// GeneratorVersions maps each actor kind used by the config to its
// registered generator version — the provenance record a run manifest
// carries so replays can detect generator drift.
func GeneratorVersions(c *Config) map[string]int {
	out := make(map[string]int, len(c.Actors))
	for _, a := range c.Actors {
		if s, ok := kindRegistry[a.Kind]; ok {
			out[a.Kind] = s.Version
		}
	}
	return out
}

func init() {
	registerKind(KindSpec{Kind: KindTCPScan, Version: 1,
		About: "TCP service scanners (Table V), random-port sweeps, scripted SSH/Backroom/port-spike events",
		New:   func() Block { return new(TCPScanConfig) }})
	registerKind(KindSpec{Kind: KindUDPProbe, Version: 1,
		About: "UDP port-group probers (Table IV) with Zipf tail and CPS bursts",
		New:   func() Block { return new(UDPProbeConfig) }})
	registerKind(KindSpec{Kind: KindICMP, Version: 1,
		About: "ICMP echo-request scanners",
		New:   func() Block { return new(ICMPScanConfig) }})
	registerKind(KindSpec{Kind: KindBackscatter, Version: 1,
		About: "DoS-victim backscatter with heavy-tailed totals and scripted events",
		New:   func() Block { return new(BackscatterConfig) }})
	registerKind(KindSpec{Kind: KindOther, Version: 1,
		About: "residual ACK/FIN misconfiguration noise from compromised devices",
		New:   func() Block { return new(OtherTrafficConfig) }})
	registerKind(KindSpec{Kind: KindBackground, Version: 1,
		About: "uniform non-IoT darknet noise from sources outside the inventory",
		New:   func() Block { return new(BackgroundConfig) }})
	registerKind(KindSpec{Kind: KindMiraiWave, Version: 1,
		About: "Mirai-style propagation wave: logistic infection ramp, telnet floods, per-bot lifetime churn",
		New:   func() Block { return new(MiraiWaveConfig) }})
	registerKind(KindSpec{Kind: KindUDPAmplification, Version: 1,
		About: "UDP amplification backscatter from reflectors answering on NTP/DNS/SSDP source ports",
		New:   func() Block { return new(UDPAmplificationConfig) }})
	registerKind(KindSpec{Kind: KindStealthScan, Version: 1,
		About: "slow sub-threshold scan: a few SYNs per device-hour against one port",
		New:   func() Block { return new(StealthScanConfig) }})
	registerKind(KindSpec{Kind: KindCPSCampaign, Version: 1,
		About: "windowed Modbus/BACnet campaign by CPS devices",
		New:   func() Block { return new(CPSCampaignConfig) }})
	registerKind(KindSpec{Kind: KindDiurnalBackground, Version: 1,
		About: "smart-home diurnal background noise from non-inventory sources with a day/night cycle",
		New:   func() Block { return new(DiurnalBackgroundConfig) }})
}

// --- Block implementations for the six paper kinds. Applying a block
// overwrites the scenario's corresponding sub-config wholesale, so a config
// is self-contained: what is not in the file is not in the run.

// Kind returns "tcp-scan".
func (c *TCPScanConfig) Kind() string       { return KindTCPScan }
func (c *TCPScanConfig) apply(sc *Scenario) { sc.TCPScan = *c }
func (c *TCPScanConfig) validate(path string, bad *badConfig) {
	if c.TotalScanners < 0 {
		bad.addf(path+".TotalScanners", "%d must be non-negative", c.TotalScanners)
	}
	if c.ConsumerFrac < 0 || c.ConsumerFrac > 1 {
		bad.addf(path+".ConsumerFrac", "%v outside [0, 1]", c.ConsumerFrac)
	}
	for i, svc := range c.Services {
		p := fmt.Sprintf("%s.Services[%d]", path, i)
		if svc.Name == "" {
			bad.addf(p+".Name", "empty")
		}
		if len(svc.Ports) == 0 {
			bad.addf(p+".Ports", "empty")
		}
		for j, port := range svc.Ports {
			if port == 0 {
				bad.addf(fmt.Sprintf("%s.Ports[%d]", p, j), "port 0")
			}
		}
		if svc.PacketShare < 0 || svc.PacketShare > 100 {
			bad.addf(p+".PacketShare", "%v outside [0, 100]", svc.PacketShare)
		}
		if svc.ConsumerPacketFrac < 0 || svc.ConsumerPacketFrac > 1 {
			bad.addf(p+".ConsumerPacketFrac", "%v outside [0, 1]", svc.ConsumerPacketFrac)
		}
	}
	if c.RandomPortShare < 0 || c.RandomPortShare > 100 {
		bad.addf(path+".RandomPortShare", "%v outside [0, 100]", c.RandomPortShare)
	}
	if c.RandomPortCPSFrac < 0 || c.RandomPortCPSFrac > 1 {
		bad.addf(path+".RandomPortCPSFrac", "%v outside [0, 1]", c.RandomPortCPSFrac)
	}
	for i, m := range c.SSHSpike.Members {
		if m.PacketFrac < 0 || m.PacketFrac > 1 {
			bad.addf(fmt.Sprintf("%s.SSHSpike.Members[%d].PacketFrac", path, i), "%v outside [0, 1]", m.PacketFrac)
		}
	}
}

// Kind returns "udp-probe".
func (c *UDPProbeConfig) Kind() string       { return KindUDPProbe }
func (c *UDPProbeConfig) apply(sc *Scenario) { sc.UDPProbe = *c }
func (c *UDPProbeConfig) validate(path string, bad *badConfig) {
	if c.TotalProbers < 0 {
		bad.addf(path+".TotalProbers", "%d must be non-negative", c.TotalProbers)
	}
	if c.ConsumerFrac < 0 || c.ConsumerFrac > 1 {
		bad.addf(path+".ConsumerFrac", "%v outside [0, 1]", c.ConsumerFrac)
	}
	if c.ConsumerPacketShare < 0 || c.ConsumerPacketShare > 1 {
		bad.addf(path+".ConsumerPacketShare", "%v outside [0, 1]", c.ConsumerPacketShare)
	}
	total := 0.0
	for i, pg := range c.PortGroups {
		p := fmt.Sprintf("%s.PortGroups[%d]", path, i)
		if pg.Port == 0 {
			bad.addf(p+".Port", "port 0")
		}
		if pg.PacketShare < 0 {
			bad.addf(p+".PacketShare", "%v must be non-negative", pg.PacketShare)
		}
		total += pg.PacketShare
	}
	if total > 100.0001 {
		bad.addf(path+".PortGroups", "packet shares sum to %.4g%% (> 100%%)", total)
	}
	if c.TailZipfExponent < 0 || c.TailZipfExponent >= 1 {
		bad.addf(path+".TailZipfExponent", "%v outside [0, 1)", c.TailZipfExponent)
	}
	if c.CPSBurstProb < 0 || c.CPSBurstProb > 1 {
		bad.addf(path+".CPSBurstProb", "%v outside [0, 1]", c.CPSBurstProb)
	}
}

// Kind returns "icmp".
func (c *ICMPScanConfig) Kind() string       { return KindICMP }
func (c *ICMPScanConfig) apply(sc *Scenario) { sc.ICMPScan = *c }
func (c *ICMPScanConfig) validate(path string, bad *badConfig) {
	if c.TotalScanners < 0 {
		bad.addf(path+".TotalScanners", "%d must be non-negative", c.TotalScanners)
	}
	if c.ConsumerScanners < 0 {
		bad.addf(path+".ConsumerScanners", "%d must be non-negative", c.ConsumerScanners)
	}
	if c.ConsumerPacketShare < 0 || c.ConsumerPacketShare > 1 {
		bad.addf(path+".ConsumerPacketShare", "%v outside [0, 1]", c.ConsumerPacketShare)
	}
}

// Kind returns "backscatter".
func (c *BackscatterConfig) Kind() string       { return KindBackscatter }
func (c *BackscatterConfig) apply(sc *Scenario) { sc.Backscatter = *c }
func (c *BackscatterConfig) validate(path string, bad *badConfig) {
	if c.TotalVictims < 0 {
		bad.addf(path+".TotalVictims", "%d must be non-negative", c.TotalVictims)
	}
	if c.CPSFrac < 0 || c.CPSFrac > 1 {
		bad.addf(path+".CPSFrac", "%v outside [0, 1]", c.CPSFrac)
	}
	validateShares(path+".CountryShares", c.CountryShares, bad)
	if c.SmallFrac < 0 || c.SmallFrac > 1 {
		bad.addf(path+".SmallFrac", "%v outside [0, 1]", c.SmallFrac)
	}
	if c.TotalVictims > 0 {
		if c.SmallXm <= 0 || c.SmallAlpha <= 0 {
			bad.addf(path+".SmallXm", "Pareto(%v, %v) needs positive xm and alpha", c.SmallXm, c.SmallAlpha)
		}
		if c.HeavyXm <= 0 || c.HeavyAlpha <= 0 {
			bad.addf(path+".HeavyXm", "Pareto(%v, %v) needs positive xm and alpha", c.HeavyXm, c.HeavyAlpha)
		}
		if c.MaxVictimTotal <= 0 {
			bad.addf(path+".MaxVictimTotal", "%v must be positive", c.MaxVictimTotal)
		}
	}
	for i, ev := range c.Events {
		p := fmt.Sprintf("%s.Events[%d]", path, i)
		if ev.Name == "" {
			bad.addf(p+".Name", "empty")
		}
		if len(ev.Hours) == 0 {
			bad.addf(p+".Hours", "empty")
		}
		for j, h := range ev.Hours {
			if h < 0 {
				bad.addf(fmt.Sprintf("%s.Hours[%d]", p, j), "negative hour %d", h)
			}
		}
		if ev.PacketsPerHour <= 0 {
			bad.addf(p+".PacketsPerHour", "%v must be positive", ev.PacketsPerHour)
		}
	}
}

// Kind returns "other".
func (c *OtherTrafficConfig) Kind() string       { return KindOther }
func (c *OtherTrafficConfig) apply(sc *Scenario) { sc.Other = *c }
func (c *OtherTrafficConfig) validate(path string, bad *badConfig) {
	if c.HourlyPackets < 0 {
		bad.addf(path+".HourlyPackets", "%v must be non-negative", c.HourlyPackets)
	}
	if c.CPSFrac < 0 || c.CPSFrac > 1 {
		bad.addf(path+".CPSFrac", "%v outside [0, 1]", c.CPSFrac)
	}
	if c.EmitterFrac < 0 || c.EmitterFrac > 1 {
		bad.addf(path+".EmitterFrac", "%v outside [0, 1]", c.EmitterFrac)
	}
}

// Kind returns "background".
func (c *BackgroundConfig) Kind() string       { return KindBackground }
func (c *BackgroundConfig) apply(sc *Scenario) { sc.Background = *c }
func (c *BackgroundConfig) validate(path string, bad *badConfig) {
	if c.HourlyPackets < 0 {
		bad.addf(path+".HourlyPackets", "%v must be non-negative", c.HourlyPackets)
	}
	if c.HourlyPackets > 0 && c.Sources <= 0 {
		bad.addf(path+".Sources", "%d must be positive when HourlyPackets > 0", c.Sources)
	}
}
