package wgen

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
)

// testConfig returns a small valid config exercising both a core and an
// extension block.
func testConfig() *Config {
	cfg := PaperDefault()
	cfg.Name, cfg.Version, cfg.Description, cfg.Hours = "test-config", 3, "hash fixture", 12
	cfg.Actors = append(cfg.Actors, ActorBlock{
		Kind: KindStealthScan,
		Params: &StealthScanConfig{
			Scanners:       100,
			Port:           8291,
			PacketsPerHour: 3,
		},
	})
	return cfg
}

// allKindsConfig is testConfig plus a block of each remaining extension
// kind: one valid config that carries every registered kind.
func allKindsConfig() *Config {
	cfg := testConfig()
	cfg.Actors = append(cfg.Actors,
		ActorBlock{Kind: KindMiraiWave, Params: &MiraiWaveConfig{
			Devices: 50, StartHour: 1, RampHours: 6, LifetimeMinHours: 2, LifetimeMaxHours: 4,
			PacketsPerHour: 20, Ports: []uint16{23, 2323},
		}},
		ActorBlock{Kind: KindUDPAmplification, Params: &UDPAmplificationConfig{
			Reflectors: 30, HourlyPackets: 900,
			Services: []ServiceShare{{Name: "NTP", Port: 123, Share: 60}, {Name: "DNS", Port: 53, Share: 40}},
			MinLen:   200, MaxLen: 480,
		}},
		ActorBlock{Kind: KindCPSCampaign, Params: &CPSCampaignConfig{
			Devices: 12, StartHour: 3, DurationHours: 4, HourlyPackets: 2500,
			Services: []ServiceShare{{Name: "Modbus TCP", Port: 502, Share: 100}},
		}},
		ActorBlock{Kind: KindDiurnalBackground, Params: &DiurnalBackgroundConfig{
			HourlyPackets: 4000, Sources: 500, PeakHour: 20, MinFactor: 0.15, Ports: []uint16{5353, 1900},
		}},
	)
	return cfg
}

// Canonical-JSON round trip: decode(encode(cfg)) is cfg.
func TestCanonicalJSONRoundTrip(t *testing.T) {
	cfg := testConfig()
	data, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Fatal("canonical JSON round trip changed the config")
	}
}

// The hash is canonical: reordering keys, reformatting, or re-encoding via
// a different syntax must not change it; changing a semantic field must.
func TestConfigHashStability(t *testing.T) {
	cfg := testConfig()
	h1, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(h1, "sha256:") {
		t.Fatalf("hash %q lacks algorithm prefix", h1)
	}

	// Shuffle key order by bouncing the JSON through a generic map (Go
	// marshals map keys sorted, i.e. in a different order than the struct).
	canon, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(canon, &tree); err != nil {
		t.Fatal(err)
	}
	shuffled, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	if string(shuffled) == string(canon) {
		t.Fatal("test vacuous: map re-marshal did not change the byte form")
	}
	cfg2, err := DecodeConfig(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := cfg2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Fatalf("key reordering changed the hash: %s vs %s", h1, h2)
	}

	// A semantic change must change the hash.
	cfg3 := testConfig()
	cfg3.Hours = 13
	h3, err := cfg3.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("semantic change did not change the hash")
	}
}

func TestDecodeConfigFaults(t *testing.T) {
	valid, err := testConfig().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func() []byte
		wantSub string
	}{
		{
			"unknown top-level field",
			func() []byte {
				return []byte(strings.Replace(string(valid), `"Hours"`, `"Bogus"`, 1))
			},
			"Bogus",
		},
		{
			"unknown params field",
			func() []byte {
				return []byte(strings.Replace(string(valid), `"Scanners"`, `"Scannerz"`, 1))
			},
			"Scannerz",
		},
		{
			"future format version",
			func() []byte {
				return []byte(strings.Replace(string(valid), `"Format": 1`, `"Format": 99`, 1))
			},
			"unsupported scenario format 99",
		},
		{
			"unknown actor kind",
			func() []byte {
				return []byte(strings.Replace(string(valid), `"Kind": "stealth-scan"`, `"Kind": "warp-drive"`, 1))
			},
			"warp-drive",
		},
		{
			"trailing data",
			func() []byte { return append(append([]byte{}, valid...), []byte(`{"again": true}`)...) },
			"after top-level value",
		},
		{
			"truncated",
			func() []byte { return valid[:len(valid)/2] },
			"",
		},
		{
			"empty",
			func() []byte { return nil },
			"",
		},
		{
			"not JSON",
			func() []byte { return []byte("Format = 1\nName = \"a\"\n") },
			"invalid character",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeConfig(tc.mutate())
			if err == nil {
				t.Fatal("corrupt config accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// Validation failures carry ErrBadScenario and a field path.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Config)
		wantPath string
	}{
		{"bad name", func(c *Config) { c.Name = "Bad Name!" }, "Name"},
		{"bad version", func(c *Config) { c.Version = 0 }, "Version"},
		{"bad hours", func(c *Config) { c.Hours = 0 }, "Hours"},
		{"bad population", func(c *Config) { c.Population.InventorySize = 0 }, "Population.InventorySize"},
		{"duplicate kind", func(c *Config) {
			c.Actors = append(c.Actors, ActorBlock{Kind: KindBackground, Params: &BackgroundConfig{HourlyPackets: 1, Sources: 1}})
		}, "Actors[7]"},
		{"bad block field", func(c *Config) {
			c.Actors[6].Params.(*StealthScanConfig).Port = 0
		}, "Actors[6].Params.Port"},
		{"bad telescope", func(c *Config) { c.Telescope.PrefixBits = 2 }, "Telescope.PrefixBits"},
		// Inputs that used to validate and then crash, hang or mis-plant the
		// render: a divide by zero, a negative makeslice, SampleK past
		// 65535, onsets before the capture, an endless Poisson(NaN), IPLen
		// wrapping past 16 bits.
		{"sweep to no destination", func(c *Config) { tcpScan(c).PortSpikeDests = 0 }, "Actors[0].Params.PortSpikeDests"},
		{"sweep to negative destinations", func(c *Config) { tcpScan(c).PortSpikeDests = -3 }, "Actors[0].Params.PortSpikeDests"},
		{"sweep past the port space", func(c *Config) { tcpScan(c).PortSpikePorts = 70000 }, "Actors[0].Params.PortSpikePorts"},
		{"negative backroom start", func(c *Config) { tcpScan(c).BackroomStartHour = -5 }, "Actors[0].Params.BackroomStartHour"},
		{"negative sweep hour", func(c *Config) { tcpScan(c).PortSpikeHour = -1 }, "Actors[0].Params.PortSpikeHour"},
		{"negative SSH spike hour", func(c *Config) { tcpScan(c).SSHSpike.Hours = []int{32, -2} }, "Actors[0].Params.SSHSpike.Hours[1]"},
		{"bursts that zero the budget", func(c *Config) {
			p := c.Actors[1].Params.(*UDPProbeConfig)
			p.CPSBurstProb, p.CPSBurstFactor = 1, 0
		}, "Actors[1].Params.CPSBurstFactor"},
		{"payload past the IP length", func(c *Config) {
			amp := allKindsConfig().Actors[8]
			amp.Params.(*UDPAmplificationConfig).MinLen = 65530
			amp.Params.(*UDPAmplificationConfig).MaxLen = 70000
			c.Actors = append(c.Actors, amp)
		}, "Actors[7].Params.MaxLen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, ErrBadScenario) {
				t.Fatalf("error %q does not wrap ErrBadScenario", err)
			}
			if !strings.Contains(err.Error(), tc.wantPath) {
				t.Fatalf("error %q does not carry field path %q", err, tc.wantPath)
			}
		})
	}
}

// tcpScan is testConfig's tcp-scan block.
func tcpScan(c *Config) *TCPScanConfig { return c.Actors[0].Params.(*TCPScanConfig) }

// within runs f on its own goroutine and fails t if f panics or is still
// running after d.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("panic: %v", p)
		}
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// The boundary values the validation rules still accept render: the
// hours each event names finish under a deadline without a panic, every
// planted onset lies inside the window, and every record inside its
// configured bounds (the telescope; an amplified payload's length).
func TestValidatedConfigsRender(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		hours  []int
	}{
		{"sweep of every port to one destination", func(c *Config) {
			s := tcpScan(c)
			s.PortSpikeHour, s.PortSpikePorts, s.PortSpikeDests = 3, 65535, 1
		}, []int{3}},
		{"bursts that do not inflate", func(c *Config) {
			p := c.Actors[1].Params.(*UDPProbeConfig)
			p.CPSBurstProb, p.CPSBurstFactor = 1, 1
		}, []int{0, 1, 2, 3, 4, 5}},
		{"payloads up to the IP length limit", func(c *Config) {
			amp := allKindsConfig().Actors[8]
			amp.Params.(*UDPAmplificationConfig).MinLen = 65500
			amp.Params.(*UDPAmplificationConfig).MaxLen = 65535
			c.Actors = append(c.Actors, amp)
		}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{"every scripted hour at 0", func(c *Config) {
			s := tcpScan(c)
			s.SSHSpike.Hours = []int{0}
			s.BackroomStartHour, s.PortSpikeHour = 0, 0
			events := c.Actors[3].Params.(*BackscatterConfig).Events
			for i := range events {
				events[i].Hours = []int{0}
			}
		}, []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(cfg)
			sc, err := cfg.Scenario(0.002, 17)
			if err != nil {
				t.Fatal(err)
			}
			within(t, time.Minute, func() {
				g, err := New(sc)
				if err != nil {
					t.Error(err)
					return
				}
				for id, h := range g.Truth().OnsetHour {
					if h < 0 || h >= sc.Hours {
						t.Errorf("device %d planted with onset %d outside [0, %d)", id, h, sc.Hours)
					}
				}
				reflectors := make(map[uint32]bool)
				for _, id := range g.Truth().Cohorts[KindUDPAmplification] {
					reflectors[uint32(g.Inventory().At(id).IP)] = true
				}
				for _, h := range tc.hours {
					err := g.EmitHour(h, func(rec flowtuple.Record) {
						if !sc.DarkPrefix().Contains(netx.Addr(rec.DstIP)) {
							t.Errorf("hour %d: record to %v outside the telescope", h, netx.Addr(rec.DstIP))
						}
						if amp := sc.UDPAmplification; reflectors[rec.SrcIP] && rec.Protocol == flowtuple.ProtoUDP &&
							(int(rec.IPLen) < amp.MinLen || int(rec.IPLen) > amp.MaxLen) {
							t.Errorf("hour %d: amplified IPLen %d outside [%d, %d]", h, rec.IPLen, amp.MinLen, amp.MaxLen)
						}
					})
					if err != nil {
						t.Error(err)
					}
				}
			})
		})
	}
}

// Every kind in the table is constructible and versioned.
func TestKindRegistry(t *testing.T) {
	if len(kinds) != 11 {
		t.Fatalf("expected 11 kinds, got %d", len(kinds))
	}
	for _, spec := range kinds {
		if spec.version < 1 {
			t.Errorf("kind %q has no version", spec.kind)
		}
		blk := spec.block()
		if blk.Kind() != spec.kind {
			t.Errorf("kind %q constructs a block reporting kind %q", spec.kind, blk.Kind())
		}
	}
	ver := GeneratorVersions(testConfig())
	if len(ver) != 7 {
		t.Fatalf("GeneratorVersions: expected 7 kinds, got %v", ver)
	}
	if ver[KindStealthScan] != 1 {
		t.Fatalf("stealth-scan generator version = %d", ver[KindStealthScan])
	}
}

// FuzzScenarioDecode: no input may panic the decoder, and any input that
// decodes must re-encode canonically to an equal config with a stable hash.
func FuzzScenarioDecode(f *testing.F) {
	// Seed with a block of every registered kind, so the mutator starts from
	// each parameter type's field names and not only the paper kinds'.
	all := allKindsConfig()
	if err := all.Validate(); err != nil {
		f.Fatal(err)
	}
	if have := GeneratorVersions(all); len(have) != len(kinds) {
		f.Fatalf("seed config carries %d of %d registered kinds", len(have), len(kinds))
	}
	seed, err := all.CanonicalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"Format":1}`))
	f.Add([]byte(`{"Format":1,"Name":"a","Version":1,"Hours":1}`))
	f.Add([]byte("not a config at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			return
		}
		h1, err := cfg.Hash()
		if err != nil {
			t.Fatalf("decoded config does not hash: %v", err)
		}
		canon, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatalf("decoded config does not re-encode: %v", err)
		}
		back, err := DecodeConfig(canon)
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("hash not stable across canonical round trip: %s vs %s", h1, h2)
		}
	})
}
