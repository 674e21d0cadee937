// Command scenariogen regenerates the bundled JSON scenario files under
// internal/scenario/scenarios/ from their programmatic definitions, so the
// committed files are always the canonical encoding (stable key order,
// stable indentation, trailing newline). Run it via `make scenarios` after
// changing a definition; TestBundledFilesAreCanonical fails the build if
// the committed files drift from what this tool writes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"iotscope/internal/geo"
	"iotscope/internal/netx"
	"iotscope/internal/wgen"
)

func main() {
	dir := flag.String("dir", "internal/scenario/scenarios", "output directory")
	flag.Parse()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, cfg := range Bundled() {
		name := fmt.Sprintf("%s@%d.json", cfg.Name, cfg.Version)
		data, err := cfg.CanonicalJSON()
		if err != nil {
			log.Fatalf("encode %s: %v", name, err)
		}
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatalf("write %s: %v", path, err)
		}
		fmt.Println("wrote", path)
	}
}

// Bundled returns the programmatic definitions of the generated bundled
// scenarios.
func Bundled() []*wgen.Config {
	return []*wgen.Config{
		paperDefault(),
		miraiWave(),
		udpAmplification(),
		stealthScan(),
		cpsCampaign(),
		smartHomeDiurnal(),
		telescope16(),
		telescope24(),
	}
}

// paperDefault is the exact declarative form of wgen.Default(): the pinned
// byte-identity scenario. Scale and seed are resolve-time inputs, so the
// arguments here only shape fields that do not depend on them.
func paperDefault() *wgen.Config {
	return wgen.ConfigFromScenario(wgen.Default(1, 0), "paper-default", 1,
		"The paper's 143-hour evaluation workload, calibrated to Tables IV/V and Figs. 2-11; byte-identical to wgen.Default().")
}

// basePopulation lifts the paper's population shape for the derived
// scenarios, so their compromised-device demographics stay calibrated.
func basePopulation() (wgen.Population, *geo.Config) {
	def := wgen.ConfigFromScenario(wgen.Default(1, 0), "paper-default", 1, "")
	return def.Population, def.Telescope
}

// baselineTCPScan is the paper's Table V scanning mix with the scripted
// one-off events (SSH spikes, BackroomNet, the port-spike camera) removed:
// a steady, loud scanning floor for scenarios that plant something else on
// top of it.
func baselineTCPScan() *wgen.TCPScanConfig {
	tcp := wgen.Default(1, 0).TCPScan
	tcp.SSHSpike = wgen.SpikeEvent{}
	tcp.BackroomPacketsPerHour = 0
	tcp.BackroomStartHour = 0
	tcp.BackroomCountry = ""
	tcp.BackroomService = ""
	tcp.PortSpikePorts = 0
	tcp.PortSpikeHour = 0
	tcp.PortSpikeDests = 0
	tcp.PortSpikeCountry = ""
	return &tcp
}

func defaultBackground() *wgen.BackgroundConfig {
	bg := wgen.Default(1, 0).Background
	return &bg
}

func miraiWave() *wgen.Config {
	pop, tel := basePopulation()
	return &wgen.Config{
		Format:      wgen.ConfigFormat,
		Name:        "mirai-wave",
		Version:     1,
		Description: "Mirai-style worm propagation: a logistic infection wave of consumer bots flooding telnet, each churning out after a bounded lifetime (Choi et al.).",
		Hours:       72,
		Telescope:   tel,
		Population:  pop,
		Actors: []wgen.ActorBlock{
			{Kind: wgen.KindTCPScan, Params: baselineTCPScan()},
			{Kind: wgen.KindBackground, Params: defaultBackground()},
			{Kind: wgen.KindMiraiWave, Params: &wgen.MiraiWaveConfig{
				Devices:          5000,
				StartHour:        2,
				RampHours:        40,
				LifetimeMinHours: 6,
				LifetimeMaxHours: 18,
				PacketsPerHour:   150,
				Ports:            []uint16{23, 2323},
			}},
		},
	}
}

func udpAmplification() *wgen.Config {
	pop, tel := basePopulation()
	return &wgen.Config{
		Format:      wgen.ConfigFormat,
		Name:        "udp-amplification",
		Version:     1,
		Description: "UDP amplification backscatter: compromised devices abused as NTP/DNS/SSDP reflectors spray large UDP responses whose spoofed targets land in the telescope.",
		Hours:       48,
		Telescope:   tel,
		Population:  pop,
		Actors: []wgen.ActorBlock{
			{Kind: wgen.KindTCPScan, Params: baselineTCPScan()},
			{Kind: wgen.KindBackground, Params: defaultBackground()},
			{Kind: wgen.KindUDPAmplification, Params: &wgen.UDPAmplificationConfig{
				Reflectors:    3000,
				HourlyPackets: 90000,
				Services: []wgen.AmplificationService{
					{Name: "NTP", Port: 123, Share: 50},
					{Name: "DNS", Port: 53, Share: 30},
					{Name: "SSDP", Port: 1900, Share: 20},
				},
				MinLen: 200,
				MaxLen: 480,
			}},
		},
	}
}

func stealthScan() *wgen.Config {
	pop, tel := basePopulation()
	return &wgen.Config{
		Format:      wgen.ConfigFormat,
		Name:        "stealth-scan",
		Version:     1,
		Description: "Slow sub-threshold stealth scan of Winbox 8291: a cohort probing a few packets per hour that detection must see but notification must not page on.",
		Hours:       48,
		Telescope:   tel,
		Population:  pop,
		Actors: []wgen.ActorBlock{
			{Kind: wgen.KindTCPScan, Params: baselineTCPScan()},
			{Kind: wgen.KindBackground, Params: defaultBackground()},
			{Kind: wgen.KindStealthScan, Params: &wgen.StealthScanConfig{
				Scanners:       2000,
				Port:           8291,
				PacketsPerHour: 3,
			}},
		},
	}
}

func cpsCampaign() *wgen.Config {
	pop, tel := basePopulation()
	return &wgen.Config{
		Format:      wgen.ConfigFormat,
		Name:        "cps-campaign",
		Version:     1,
		Description: "A coordinated industrial-protocol campaign: CPS devices scan Modbus and BACnet/IP inside a bounded 24-hour window.",
		Hours:       72,
		Telescope:   tel,
		Population:  pop,
		Actors: []wgen.ActorBlock{
			{Kind: wgen.KindTCPScan, Params: baselineTCPScan()},
			{Kind: wgen.KindBackground, Params: defaultBackground()},
			{Kind: wgen.KindCPSCampaign, Params: &wgen.CPSCampaignConfig{
				Devices:       1200,
				StartHour:     30,
				DurationHours: 24,
				HourlyPackets: 250000,
				Services: []wgen.CPSCampaignService{
					{Name: "Modbus TCP", Port: 502, Share: 60},
					{Name: "BACnet/IP", Port: 47808, Share: 40},
				},
			}},
		},
	}
}

func smartHomeDiurnal() *wgen.Config {
	pop, tel := basePopulation()
	return &wgen.Config{
		Format:      wgen.ConfigFormat,
		Name:        "smart-home-diurnal",
		Version:     1,
		Description: "Smart-home discovery chatter from outside the inventory, breathing with a day/night cycle (Mainuddin et al.); correlation must discard all of it.",
		Hours:       48,
		Telescope:   tel,
		Population:  pop,
		Actors: []wgen.ActorBlock{
			{Kind: wgen.KindTCPScan, Params: baselineTCPScan()},
			{Kind: wgen.KindBackground, Params: defaultBackground()},
			{Kind: wgen.KindDiurnalBackground, Params: &wgen.DiurnalBackgroundConfig{
				HourlyPackets: 400000,
				Sources:       50000,
				PeakHour:      20,
				MinFactor:     0.15,
				Ports:         []uint16{5353, 1900, 3702},
			}},
		},
	}
}

// telescopeVariant shrinks the telescope while keeping the full paper
// workload, for sensitivity testing: the same planted events must still be
// recovered from a /16 or /24 vantage.
func telescopeVariant(name, prefix, size string) *wgen.Config {
	cfg := wgen.ConfigFromScenario(wgen.Default(1, 0), name, 1,
		"The full paper workload observed through a "+size+" sub-telescope ("+prefix+") instead of the /8; a telescope-size sensitivity fixture.")
	cfg.Telescope.DarkPrefix = netx.MustParsePrefix(prefix)
	return cfg
}

func telescope16() *wgen.Config {
	return telescopeVariant("telescope-16", "44.0.0.0/16", "/16")
}

func telescope24() *wgen.Config {
	return telescopeVariant("telescope-24", "44.0.0.0/24", "/24")
}
