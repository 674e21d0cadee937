package wgen

import "fmt"

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

// kinds is the generator table: one row per actor kind, with its behaviour
// version — recorded in every run manifest so a dataset names the exact
// generator code paths that produced it — and a constructor for the empty
// parameter block a config decodes into.
var kinds = []struct {
	kind    string
	version int
	block   func() Block
}{
	{KindTCPScan, 1, func() Block { return new(TCPScanConfig) }},
	{KindUDPProbe, 1, func() Block { return new(UDPProbeConfig) }},
	{KindICMP, 1, func() Block { return new(ICMPScanConfig) }},
	{KindBackscatter, 1, func() Block { return new(BackscatterConfig) }},
	{KindOther, 1, func() Block { return new(OtherTrafficConfig) }},
	{KindBackground, 1, func() Block { return new(BackgroundConfig) }},
	{KindMiraiWave, 1, func() Block { return new(MiraiWaveConfig) }},
	{KindUDPAmplification, 1, func() Block { return new(UDPAmplificationConfig) }},
	{KindStealthScan, 1, func() Block { return new(StealthScanConfig) }},
	{KindCPSCampaign, 1, func() Block { return new(CPSCampaignConfig) }},
	{KindDiurnalBackground, 1, func() Block { return new(DiurnalBackgroundConfig) }},
}

// kindRow returns the table row of a kind, or -1.
func kindRow(kind string) int {
	for i, k := range kinds {
		if k.kind == kind {
			return i
		}
	}
	return -1
}

// GeneratorVersions maps each actor kind used by the config to its
// generator version — the provenance record a run manifest carries so
// replays can detect generator drift.
func GeneratorVersions(c *Config) map[string]int {
	out := make(map[string]int, len(c.Actors))
	for _, a := range c.Actors {
		if i := kindRow(a.Kind); i >= 0 {
			out[a.Kind] = kinds[i].version
		}
	}
	return out
}

// --- Block implementations for the six paper kinds. Applying a block
// overwrites the scenario's corresponding sub-config wholesale, so a config
// is self-contained: what is not in the file is not in the run.

// Kind returns "tcp-scan".
func (c *TCPScanConfig) Kind() string       { return KindTCPScan }
func (c *TCPScanConfig) apply(sc *Scenario) { sc.TCPScan = *c }
func (c *TCPScanConfig) validate(path string, bad *badConfig) {
	nonNegative(path+".TotalScanners", c.TotalScanners, bad)
	fraction(path+".ConsumerFrac", c.ConsumerFrac, bad)
	for i, svc := range c.Services {
		p := fmt.Sprintf("%s.Services[%d]", path, i)
		if svc.Name == "" {
			bad.addf(p+".Name", "empty")
		}
		validatePorts(p+".Ports", svc.Ports, bad)
		if svc.PacketShare < 0 || svc.PacketShare > 100 {
			bad.addf(p+".PacketShare", "%v outside [0, 100]", svc.PacketShare)
		}
		fraction(p+".ConsumerPacketFrac", svc.ConsumerPacketFrac, bad)
	}
	if c.RandomPortShare < 0 || c.RandomPortShare > 100 {
		bad.addf(path+".RandomPortShare", "%v outside [0, 100]", c.RandomPortShare)
	}
	fraction(path+".RandomPortCPSFrac", c.RandomPortCPSFrac, bad)
	for i, m := range c.SSHSpike.Members {
		fraction(fmt.Sprintf("%s.SSHSpike.Members[%d].PacketFrac", path, i), m.PacketFrac, bad)
	}
	// The scripted events' hours become planted onsets: none may precede
	// the capture. A disabled event keeps its zero fields and stays valid.
	validateHours(path+".SSHSpike.Hours", c.SSHSpike.Hours, bad)
	if c.BackroomStartHour < 0 {
		bad.addf(path+".BackroomStartHour", "negative hour %d", c.BackroomStartHour)
	}
	if c.PortSpikeHour < 0 {
		bad.addf(path+".PortSpikeHour", "negative hour %d", c.PortSpikeHour)
	}
	if c.PortSpikePorts < 0 || c.PortSpikePorts > 65535 {
		bad.addf(path+".PortSpikePorts", "%d outside [0, 65535]", c.PortSpikePorts)
	}
	if c.PortSpikePorts > 0 && c.PortSpikeDests < 1 {
		bad.addf(path+".PortSpikeDests", "%d must be positive when PortSpikePorts > 0", c.PortSpikeDests)
	}
}

// Kind returns "udp-probe".
func (c *UDPProbeConfig) Kind() string       { return KindUDPProbe }
func (c *UDPProbeConfig) apply(sc *Scenario) { sc.UDPProbe = *c }
func (c *UDPProbeConfig) validate(path string, bad *badConfig) {
	nonNegative(path+".TotalProbers", c.TotalProbers, bad)
	fraction(path+".ConsumerFrac", c.ConsumerFrac, bad)
	fraction(path+".ConsumerPacketShare", c.ConsumerPacketShare, bad)
	total := 0.0
	for i, pg := range c.PortGroups {
		p := fmt.Sprintf("%s.PortGroups[%d]", path, i)
		if pg.Port == 0 {
			bad.addf(p+".Port", "port 0")
		}
		nonNegative(p+".PacketShare", pg.PacketShare, bad)
		total += pg.PacketShare
	}
	if total > 100.0001 {
		bad.addf(path+".PortGroups", "packet shares sum to %.4g%% (> 100%%)", total)
	}
	if c.TailZipfExponent < 0 || c.TailZipfExponent >= 1 {
		bad.addf(path+".TailZipfExponent", "%v outside [0, 1)", c.TailZipfExponent)
	}
	fraction(path+".CPSBurstProb", c.CPSBurstProb, bad)
	// Budgets are discounted by the expected burst 1 + p·(f−1); below 1 a
	// burst shrinks traffic, and at p = 1, f = 0 the discount divides by 0.
	if c.CPSBurstProb > 0 && c.CPSBurstFactor < 1 {
		bad.addf(path+".CPSBurstFactor", "%v must be >= 1 when CPSBurstProb > 0", c.CPSBurstFactor)
	}
}

// Kind returns "icmp".
func (c *ICMPScanConfig) Kind() string       { return KindICMP }
func (c *ICMPScanConfig) apply(sc *Scenario) { sc.ICMPScan = *c }
func (c *ICMPScanConfig) validate(path string, bad *badConfig) {
	nonNegative(path+".TotalScanners", c.TotalScanners, bad)
	nonNegative(path+".ConsumerScanners", c.ConsumerScanners, bad)
	fraction(path+".ConsumerPacketShare", c.ConsumerPacketShare, bad)
}

// Kind returns "backscatter".
func (c *BackscatterConfig) Kind() string       { return KindBackscatter }
func (c *BackscatterConfig) apply(sc *Scenario) { sc.Backscatter = *c }
func (c *BackscatterConfig) validate(path string, bad *badConfig) {
	nonNegative(path+".TotalVictims", c.TotalVictims, bad)
	fraction(path+".CPSFrac", c.CPSFrac, bad)
	validateShares(path+".CountryShares", c.CountryShares, bad)
	fraction(path+".SmallFrac", c.SmallFrac, bad)
	if c.TotalVictims > 0 {
		if c.SmallXm <= 0 || c.SmallAlpha <= 0 {
			bad.addf(path+".SmallXm", "Pareto(%v, %v) needs positive xm and alpha", c.SmallXm, c.SmallAlpha)
		}
		if c.HeavyXm <= 0 || c.HeavyAlpha <= 0 {
			bad.addf(path+".HeavyXm", "Pareto(%v, %v) needs positive xm and alpha", c.HeavyXm, c.HeavyAlpha)
		}
		positive(path+".MaxVictimTotal", c.MaxVictimTotal, bad)
	}
	for i, ev := range c.Events {
		p := fmt.Sprintf("%s.Events[%d]", path, i)
		if ev.Name == "" {
			bad.addf(p+".Name", "empty")
		}
		if len(ev.Hours) == 0 {
			bad.addf(p+".Hours", "empty")
		}
		validateHours(p+".Hours", ev.Hours, bad)
		positive(p+".PacketsPerHour", ev.PacketsPerHour, bad)
	}
}

// Kind returns "other".
func (c *OtherTrafficConfig) Kind() string       { return KindOther }
func (c *OtherTrafficConfig) apply(sc *Scenario) { sc.Other = *c }
func (c *OtherTrafficConfig) validate(path string, bad *badConfig) {
	nonNegative(path+".HourlyPackets", c.HourlyPackets, bad)
	fraction(path+".CPSFrac", c.CPSFrac, bad)
	fraction(path+".EmitterFrac", c.EmitterFrac, bad)
}

// Kind returns "background".
func (c *BackgroundConfig) Kind() string       { return KindBackground }
func (c *BackgroundConfig) apply(sc *Scenario) { sc.Background = *c }
func (c *BackgroundConfig) validate(path string, bad *badConfig) {
	nonNegative(path+".HourlyPackets", c.HourlyPackets, bad)
	if c.HourlyPackets > 0 && c.Sources <= 0 {
		bad.addf(path+".Sources", "%d must be positive when HourlyPackets > 0", c.Sources)
	}
}
