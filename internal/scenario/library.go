package scenario

import (
	"iotscope/internal/netx"
	"iotscope/internal/wgen"
)

// library is the bundled scenario library, sorted by name then version.
// Each entry builds a fresh config on every call, so no two callers share
// a pointer or a slice. A definition's identity is its config hash, pinned
// per ref by TestBundledLibrary: changing one means bumping its Version and
// pinning the new hash.
var library = []func() *wgen.Config{
	cpsCampaign,
	miraiWave,
	wgen.PaperDefault,
	smartHomeDiurnal,
	stealthScan,
	telescope16,
	telescope24,
	udpAmplification,
}

// planted is the shape of the detection-rate fixtures: the paper's
// population and telescope, its Table V scanning mix with the scripted
// one-off events (SSH spikes, BackroomNet, the port-spike camera) removed —
// a steady, loud scanning floor — the paper's background noise, and one
// planted actor on top.
func planted(name string, hours int, description string, actor wgen.Block) *wgen.Config {
	sc := wgen.Default(1, 0)
	tcp := sc.TCPScan
	tcp.SSHSpike = wgen.SpikeEvent{}
	tcp.BackroomPacketsPerHour = 0
	tcp.BackroomStartHour = 0
	tcp.BackroomCountry = ""
	tcp.BackroomService = ""
	tcp.PortSpikePorts = 0
	tcp.PortSpikeHour = 0
	tcp.PortSpikeDests = 0
	tcp.PortSpikeCountry = ""
	return &wgen.Config{
		Format:      wgen.ConfigFormat,
		Name:        name,
		Version:     1,
		Description: description,
		Hours:       hours,
		Telescope:   &sc.Geo,
		Population:  sc.Population,
		Actors: []wgen.ActorBlock{
			{Kind: wgen.KindTCPScan, Params: &tcp},
			{Kind: wgen.KindBackground, Params: &sc.Background},
			{Kind: actor.Kind(), Params: actor},
		},
	}
}

func miraiWave() *wgen.Config {
	return planted("mirai-wave", 72,
		"Mirai-style worm propagation: a logistic infection wave of consumer bots flooding telnet, each churning out after a bounded lifetime (Choi et al.).",
		&wgen.MiraiWaveConfig{
			Devices:          5000,
			StartHour:        2,
			RampHours:        40,
			LifetimeMinHours: 6,
			LifetimeMaxHours: 18,
			PacketsPerHour:   150,
			Ports:            []uint16{23, 2323},
		})
}

func udpAmplification() *wgen.Config {
	return planted("udp-amplification", 48,
		"UDP amplification backscatter: compromised devices abused as NTP/DNS/SSDP reflectors spray large UDP responses whose spoofed targets land in the telescope.",
		&wgen.UDPAmplificationConfig{
			Reflectors:    3000,
			HourlyPackets: 90000,
			Services: []wgen.ServiceShare{
				{Name: "NTP", Port: 123, Share: 50},
				{Name: "DNS", Port: 53, Share: 30},
				{Name: "SSDP", Port: 1900, Share: 20},
			},
			MinLen: 200,
			MaxLen: 480,
		})
}

func stealthScan() *wgen.Config {
	return planted("stealth-scan", 48,
		"Slow sub-threshold stealth scan of Winbox 8291: a cohort probing a few packets per hour that detection must see but notification must not page on.",
		&wgen.StealthScanConfig{
			Scanners:       2000,
			Port:           8291,
			PacketsPerHour: 3,
		})
}

func cpsCampaign() *wgen.Config {
	return planted("cps-campaign", 72,
		"A coordinated industrial-protocol campaign: CPS devices scan Modbus and BACnet/IP inside a bounded 24-hour window.",
		&wgen.CPSCampaignConfig{
			Devices:       1200,
			StartHour:     30,
			DurationHours: 24,
			HourlyPackets: 250000,
			Services: []wgen.ServiceShare{
				{Name: "Modbus TCP", Port: 502, Share: 60},
				{Name: "BACnet/IP", Port: 47808, Share: 40},
			},
		})
}

func smartHomeDiurnal() *wgen.Config {
	return planted("smart-home-diurnal", 48,
		"Smart-home discovery chatter from outside the inventory, breathing with a day/night cycle (Mainuddin et al.); correlation must discard all of it.",
		&wgen.DiurnalBackgroundConfig{
			HourlyPackets: 400000,
			Sources:       50000,
			PeakHour:      20,
			MinFactor:     0.15,
			Ports:         []uint16{5353, 1900, 3702},
		})
}

// telescopeVariant shrinks the telescope while keeping the full paper
// workload, for sensitivity testing: the same planted events must still be
// recovered from a /16 or /24 vantage.
func telescopeVariant(name, prefix, size string) *wgen.Config {
	cfg := wgen.PaperDefault()
	cfg.Name = name
	cfg.Description = "The full paper workload observed through a " + size + " sub-telescope (" + prefix + ") instead of the /8; a telescope-size sensitivity fixture."
	cfg.Telescope.DarkPrefix = netx.MustParsePrefix(prefix)
	return cfg
}

func telescope16() *wgen.Config {
	return telescopeVariant("telescope-16", "44.0.0.0/16", "/16")
}

func telescope24() *wgen.Config {
	return telescopeVariant("telescope-24", "44.0.0.0/24", "/24")
}
