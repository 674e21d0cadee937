// Package wgen synthesizes the darknet workload: it decides which inventory
// devices are compromised, assigns them attacker behaviours (TCP/ICMP
// scanning, UDP probing, DoS-victim backscatter, misconfiguration noise),
// and emits their telescope-visible traffic hour by hour.
//
// Every knob in the Scenario is lifted from the paper's evaluation
// (Secs. III-V): country shares, device-type mixes, the port tables
// (Tables IV and V), hourly volume targets (Figs. 5, 7, 9, 10), and the
// scripted events the paper narrates (DoS spikes at intervals 6-8, 49,
// 53-56, 81, 94, 99, and 127; SSH scan surges at 32 and 69; the BACnet
// device scanning BackroomNet from interval 113; the Dominican IP camera
// sweeping 10,249 ports at interval 119). The analysis pipeline must then
// recover these plants without ever reading the ground truth.
package wgen

import (
	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/netx"
)

// Share is a (country code, percentage) pair.
type Share struct {
	Code  string
	Share float64
}

// ScanService parameterizes one row of Table V.
type ScanService struct {
	Name string
	// Ports scanned for this service (e.g. Telnet 23/2323/23231).
	Ports []uint16
	// PacketShare is the service's share of all TCP scanning packets (%).
	PacketShare float64
	// ConsumerPacketFrac splits the service's packets between realms.
	ConsumerPacketFrac float64
	// ConsumerDevices / CPSDevices are full-scale scanner populations.
	ConsumerDevices int
	CPSDevices      int
}

// UDPPortGroup parameterizes one row of Table IV.
type UDPPortGroup struct {
	Port uint16
	// PacketShare is the port's share of all UDP packets (%).
	PacketShare float64
	// Devices is the full-scale number of probers targeting the port.
	Devices int
}

// DoSEvent is one scripted denial-of-service episode against a single
// victim device (Sec. IV-B1).
type DoSEvent struct {
	Name  string
	Hours []int
	// PacketsPerHour is the victim's full-scale backscatter intensity.
	PacketsPerHour float64
	// Victim selector.
	Country    string
	Category   devicedb.Category
	Service    string              // required CPS service, if Category == CPS
	DeviceType devicedb.DeviceType // required type, if Category == Consumer
}

// SpikeEvent is a scripted scanning surge by a small device group.
type SpikeEvent struct {
	Hours          []int
	PacketsPerHour float64 // full scale, split across the group
	// Group selectors: (country, category) per participating device.
	Members []SpikeMember
}

// SpikeMember selects one scripted scanner.
type SpikeMember struct {
	Country  string
	Category devicedb.Category
	// PacketFrac is the member's share of the spike packets.
	PacketFrac float64
}

// TCPScanConfig shapes Sec. IV-C.
type TCPScanConfig struct {
	TotalScanners         int     // full scale: 12,363
	ConsumerFrac          float64 // 0.55
	HourlyPacketsConsumer float64 // full scale: 382,000
	HourlyPacketsCPS      float64 // full scale: 318,000
	Services              []ScanService
	// RandomPortShare is the packet share scanned outside Table V (%).
	RandomPortShare float64
	// RandomPortCPSFrac gives CPS scanners the bulk of the wide-port
	// scanning (Fig. 9: CPS sweeps ~576 ports per hour vs consumer ~246).
	RandomPortCPSFrac float64
	// HTTPRampStartHour makes HTTP scanning grow linearly afterwards.
	HTTPRampStartHour int
	HTTPRampFactor    float64 // multiplier reached by the final hour
	// SSHSpike scripts the interval 32/69 surges.
	SSHSpike SpikeEvent
	// Backroom scripts the single BACnet device scanning port 3387.
	BackroomStartHour      int
	BackroomPacketsPerHour float64
	BackroomCountry        string
	BackroomService        string
	// PortSpike scripts the interval-119 camera port sweep.
	PortSpikeHour    int
	PortSpikePorts   int
	PortSpikeDests   int
	PortSpikeCountry string
}

// UDPProbeConfig shapes Sec. IV-A.
type UDPProbeConfig struct {
	TotalProbers        int     // full scale: 25,242
	ConsumerFrac        float64 // 0.60
	ConsumerPacketShare float64 // 0.63
	HourlyPackets       float64 // full scale: ~91,000 (13M over 143 h)
	PortGroups          []UDPPortGroup
	// TailZipfExponent spreads the residual packets over the port space.
	TailZipfExponent float64
	// CPSBurstProb triggers the recurring CPS port-burst spikes (Fig. 5a).
	CPSBurstProb   float64
	CPSBurstFactor float64
	// CPSPacketsPerDest makes CPS probers hammer fewer destinations.
	CPSPacketsPerDest int
}

// ICMPScanConfig shapes the echo-request scanners (Sec. IV-C).
type ICMPScanConfig struct {
	TotalScanners       int     // full scale: 56
	ConsumerScanners    int     // full scale: 32
	ConsumerPacketShare float64 // 0.93
	HourlyPackets       float64 // full scale: ~2,300
}

// BackscatterConfig shapes Sec. IV-B. Per-victim volumes are
// scale-invariant (populations scale, behaviour does not): a two-component
// Pareto mixture puts half the victims under a couple hundred packets while
// ~15 % exceed 10 K (Fig. 6).
type BackscatterConfig struct {
	TotalVictims  int     // full scale: 839
	CPSFrac       float64 // 0.53
	CountryShares []Share // Fig. 8a victim placement
	// SmallFrac of victims draw totals from Pareto(SmallXm, SmallAlpha);
	// the rest from Pareto(HeavyXm, HeavyAlpha).
	SmallFrac  float64
	SmallXm    float64
	SmallAlpha float64
	HeavyXm    float64
	HeavyAlpha float64
	// CPSVolumeFactor inflates CPS victims' totals (the paper: CPS devices
	// generate 73 % of backscatter from 53 % of victims).
	CPSVolumeFactor float64
	MaxVictimTotal  float64
	Events          []DoSEvent
}

// OtherTrafficConfig shapes the residual IoT noise (ACK/FIN junk and
// misconfiguration) that keeps the taxonomy honest.
type OtherTrafficConfig struct {
	HourlyPackets float64 // full scale
	CPSFrac       float64 // CPS share of the noise
	EmitterFrac   float64 // fraction of compromised devices that emit it
}

// BackgroundConfig shapes non-IoT darknet traffic from sources outside the
// inventory, which the correlation step must discard.
type BackgroundConfig struct {
	HourlyPackets float64 // full scale
	Sources       int     // full-scale distinct source population
}

// Scenario is the complete generation configuration.
type Scenario struct {
	Seed  uint64
	Hours int
	// Scale multiplies device populations and aggregate volumes together,
	// preserving per-device behaviour. 1.0 reproduces paper magnitudes.
	Scale float64

	Geo geo.Config
	// Population is embedded, so its fields read as the scenario's own
	// (sc.CompromisedTotal) and flatten into scenario.json under the keys
	// they have always had.
	Population

	TCPScan     TCPScanConfig
	UDPProbe    UDPProbeConfig
	ICMPScan    ICMPScanConfig
	Backscatter BackscatterConfig
	Other       OtherTrafficConfig
	Background  BackgroundConfig

	// Extension actor kinds (blocks.go), nil when absent. They are
	// pointers, and every code path they drive derives fresh rng labels, so
	// scenarios without them — the paper default above all — generate
	// byte-identical output to builds that predate the blocks.
	MiraiWave         *MiraiWaveConfig
	UDPAmplification  *UDPAmplificationConfig
	StealthScan       *StealthScanConfig
	CPSCampaign       *CPSCampaignConfig
	DiurnalBackground *DiurnalBackgroundConfig
}

// DarkPrefix returns the telescope space of the scenario.
func (s Scenario) DarkPrefix() netx.Prefix { return s.Geo.DarkPrefix }

// PaperDefault returns the paper's evaluation workload in declarative form:
// the one place its numbers are written down. The bundled paper-default
// scenario is this config; Default resolves it.
func PaperDefault() *Config {
	tel := geo.DefaultConfig()
	return &Config{
		Format:      ConfigFormat,
		Name:        "paper-default",
		Version:     1,
		Description: "The paper's 143-hour evaluation workload, calibrated to Tables IV/V and Figs. 2-11; byte-identical to wgen.Default().",
		Hours:       143,
		Telescope:   &tel,
		Population: Population{
			InventorySize:            331000,
			CompromisedTotal:         26881,
			ConsumerCompromisedShare: 0.57,
			ConsumerCountryShares: []Share{
				{"RU", 32.0}, {"US", 9.0}, {"ID", 4.3}, {"TH", 4.2}, {"KR", 3.5},
				{"CN", 3.2}, {"BR", 3.0}, {"VN", 2.8}, {"TR", 2.6}, {"UA", 2.5},
				{"IN", 2.4}, {"TW", 2.2}, {"SG", 2.0}, {"PH", 2.0}, {"GB", 1.8},
				{"MX", 1.5}, {"DE", 1.4}, {"FR", 1.3}, {"IT", 1.2}, {"NL", 1.0},
			},
			CPSCountryShares: []Share{
				{"CN", 17.0}, {"RU", 14.8}, {"KR", 8.3}, {"US", 6.9}, {"TR", 4.0},
				{"TW", 3.8}, {"UA", 3.6}, {"TH", 3.4}, {"IN", 3.2}, {"BR", 3.0},
				{"SG", 2.6}, {"ID", 2.4}, {"VN", 2.2}, {"FR", 2.0}, {"DE", 1.8},
				{"CA", 1.6}, {"GB", 1.4}, {"CH", 1.0}, {"JP", 1.0}, {"ZA", 0.8},
			},
			ConsumerTypeShares: []devicedb.TypeWeight{
				// Fig. 3.
				{Type: devicedb.TypeRouter, Weight: 52.4},
				{Type: devicedb.TypeIPCamera, Weight: 25.2},
				{Type: devicedb.TypePrinter, Weight: 18.0},
				{Type: devicedb.TypeStorage, Weight: 3.6},
				{Type: devicedb.TypeDVR, Weight: 0.5},
				{Type: devicedb.TypeHub, Weight: 0.1},
			},
			// TCP scanners (46 % of compromised devices) always onset on day
			// one — they are the paper's day-one discovery cohort; this is the
			// extra day-one probability for non-scanners.
			Day1Fraction:    0.08,
			DayActiveProb:   0.50,
			HourDutyMin:     0.10,
			HourDutyMax:     0.60,
			RateSpreadSigma: 1.3,
		},
		Actors: []ActorBlock{
			{Kind: KindTCPScan, Params: &TCPScanConfig{
				TotalScanners:         12363,
				ConsumerFrac:          0.55,
				HourlyPacketsConsumer: 382000,
				HourlyPacketsCPS:      318000,
				Services: []ScanService{
					// Table V (CP = 93.3 %).
					{Name: "Telnet", Ports: []uint16{23, 2323, 23231}, PacketShare: 50.2,
						ConsumerPacketFrac: 0.634, ConsumerDevices: 643, CPSDevices: 553},
					{Name: "HTTP", Ports: []uint16{80, 8080, 81}, PacketShare: 9.4,
						ConsumerPacketFrac: 0.945, ConsumerDevices: 1418, CPSDevices: 345},
					{Name: "SSH", Ports: []uint16{22}, PacketShare: 7.7,
						ConsumerPacketFrac: 0.337, ConsumerDevices: 64, CPSDevices: 80},
					{Name: "BackroomNet", Ports: []uint16{3387}, PacketShare: 0,
						ConsumerPacketFrac: 0, ConsumerDevices: 0, CPSDevices: 0}, // scripted
					{Name: "CWMP", Ports: []uint16{7547}, PacketShare: 4.5,
						ConsumerPacketFrac: 0.448, ConsumerDevices: 169, CPSDevices: 244},
					{Name: "WSDAPI-S", Ports: []uint16{5358}, PacketShare: 4.1,
						ConsumerPacketFrac: 0.59, ConsumerDevices: 94, CPSDevices: 48},
					{Name: "MSSQLServer", Ports: []uint16{1433}, PacketShare: 3.3,
						ConsumerPacketFrac: 0.362, ConsumerDevices: 8, CPSDevices: 13},
					{Name: "Kerberos", Ports: []uint16{88}, PacketShare: 2.7,
						ConsumerPacketFrac: 0.99, ConsumerDevices: 1061, CPSDevices: 23},
					{Name: "MS DS", Ports: []uint16{445}, PacketShare: 2.5,
						ConsumerPacketFrac: 0.453, ConsumerDevices: 43, CPSDevices: 330},
					{Name: "EthernetIP-IO", Ports: []uint16{2222}, PacketShare: 0.7,
						ConsumerPacketFrac: 0.416, ConsumerDevices: 50, CPSDevices: 65},
					{Name: "iRDMI", Ports: []uint16{8000}, PacketShare: 0.7,
						ConsumerPacketFrac: 0.985, ConsumerDevices: 1055, CPSDevices: 18},
					{Name: "Unassigned-21677", Ports: []uint16{21677}, PacketShare: 0.6,
						ConsumerPacketFrac: 0, ConsumerDevices: 1, CPSDevices: 87},
					{Name: "RDP", Ports: []uint16{3389}, PacketShare: 0.5,
						ConsumerPacketFrac: 0.468, ConsumerDevices: 42, CPSDevices: 61},
					{Name: "FTP", Ports: []uint16{21}, PacketShare: 0.3,
						ConsumerPacketFrac: 0.46, ConsumerDevices: 20, CPSDevices: 33},
				},
				RandomPortShare:   6.7,
				RandomPortCPSFrac: 0.70,
				HTTPRampStartHour: 92,
				HTTPRampFactor:    1.8,
				SSHSpike: SpikeEvent{
					Hours:          []int{32, 69},
					PacketsPerHour: 400000,
					Members: []SpikeMember{
						// Sec. IV-C: two routers (RU, AU) + three CPS (CN, CN, BR);
						// the CPS trio generates ~80 % at interval 32 and ~90 % at 69.
						{Country: "RU", Category: devicedb.Consumer, PacketFrac: 0.07},
						{Country: "AU", Category: devicedb.Consumer, PacketFrac: 0.06},
						{Country: "CN", Category: devicedb.CPS, PacketFrac: 0.30},
						{Country: "CN", Category: devicedb.CPS, PacketFrac: 0.28},
						{Country: "BR", Category: devicedb.CPS, PacketFrac: 0.29},
					},
				},
				BackroomStartHour:      113,
				BackroomPacketsPerHour: 200000,
				BackroomCountry:        "CA",
				BackroomService:        "BACnet/IP",
				PortSpikeHour:          119,
				PortSpikePorts:         10249,
				PortSpikeDests:         55,
				PortSpikeCountry:       "DO",
			}},
			{Kind: KindUDPProbe, Params: &UDPProbeConfig{
				TotalProbers:        25242,
				ConsumerFrac:        0.60,
				ConsumerPacketShare: 0.63,
				// Pre-compensated above the paper's ~91 K/h: light probers
				// trickle in over the window (Fig. 2) and under-deliver their
				// budgets, landing the delivered share at the paper's ~10 %.
				HourlyPackets: 115000,
				PortGroups: []UDPPortGroup{
					// Table IV.
					{Port: 37547, PacketShare: 2.52, Devices: 10115},
					{Port: 137, PacketShare: 2.06, Devices: 144},
					{Port: 53413, PacketShare: 2.05, Devices: 91},
					{Port: 32124, PacketShare: 1.08, Devices: 9488},
					{Port: 28183, PacketShare: 0.94, Devices: 9710},
					{Port: 5353, PacketShare: 0.76, Devices: 165},
					{Port: 4605, PacketShare: 0.38, Devices: 150},
					{Port: 53, PacketShare: 0.33, Devices: 158},
					{Port: 3544, PacketShare: 0.26, Devices: 226},
					{Port: 1194, PacketShare: 0.26, Devices: 96},
				},
				TailZipfExponent:  0.5,
				CPSBurstProb:      0.08,
				CPSBurstFactor:    6,
				CPSPacketsPerDest: 6,
			}},
			{Kind: KindICMP, Params: &ICMPScanConfig{
				TotalScanners:       56,
				ConsumerScanners:    32,
				ConsumerPacketShare: 0.93,
				HourlyPackets:       2300,
			}},
			{Kind: KindBackscatter, Params: &BackscatterConfig{
				TotalVictims: 839,
				CPSFrac:      0.53,
				CountryShares: []Share{
					// Fig. 8a: CN, SG, US lead; SG/ID victims are consumer-heavy.
					{"CN", 18.0}, {"US", 10.0}, {"SG", 8.5}, {"ID", 6.5},
					{"KR", 5.0}, {"TW", 4.0}, {"VN", 3.5}, {"TH", 3.0},
					{"RU", 3.0}, {"IN", 2.5}, {"BR", 2.0}, {"GB", 1.2},
					{"FR", 1.2}, {"DE", 1.2}, {"MY", 1.1}, {"CH", 0.5}, {"AR", 0.6},
				},
				SmallFrac:       0.5,
				SmallXm:         20,
				SmallAlpha:      1.5,
				HeavyXm:         500,
				HeavyAlpha:      0.4,
				CPSVolumeFactor: 2.2,
				// Only the scripted event victims exceed ~100 K packets
				// (Fig. 6: just 7 devices above 100 K, all event-driven).
				MaxVictimTotal: 25000,
				Events: []DoSEvent{
					// Sec. IV-B1 narrative.
					{Name: "cn-ethip-1", Hours: []int{6, 7, 8, 53, 54, 55, 56},
						PacketsPerHour: 800000, Country: "CN",
						Category: devicedb.CPS, Service: "Ethernet/IP"},
					{Name: "cn-ethip-2", Hours: []int{99, 127},
						PacketsPerHour: 700000, Country: "CN",
						Category: devicedb.CPS, Service: "Ethernet/IP"},
					{Name: "ch-telvent", Hours: []int{94},
						PacketsPerHour: 500000, Country: "CH",
						Category: devicedb.CPS, Service: "Telvent OASyS DNA"},
					{Name: "nl-printer", Hours: []int{49},
						PacketsPerHour: 150000, Country: "NL",
						Category: devicedb.Consumer, DeviceType: devicedb.TypePrinter},
					{Name: "gb-printer", Hours: []int{81},
						PacketsPerHour: 250000, Country: "GB",
						Category: devicedb.Consumer, DeviceType: devicedb.TypePrinter},
				},
			}},
			{Kind: KindOther, Params: &OtherTrafficConfig{
				// Sized so the realm totals land at Fig. 4's CPS 52.9 % vs
				// consumer 47.2 % despite consumer-heavy scanning: CPS devices
				// carry the bulk of the steady ACK/FIN residue.
				HourlyPackets: 220000,
				CPSFrac:       0.85,
				EmitterFrac:   0.30,
			}},
			{Kind: KindBackground, Params: &BackgroundConfig{
				HourlyPackets: 700000,
				Sources:       80000,
			}},
		},
	}
}

// Default returns the paper-calibrated scenario at the given scale
// (0 < scale <= 1) and seed. Scale 0.02 is used by the experiment harness;
// tests run smaller.
func Default(scale float64, seed uint64) Scenario {
	sc, err := PaperDefault().Scenario(scale, seed)
	if err != nil {
		panic("wgen: the paper default does not validate: " + err.Error())
	}
	return sc
}
