package core

import (
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/netx"
	"iotscope/internal/notify"
	"iotscope/internal/scenario"
)

// genScenario renders a bundled scenario at test scale and runs the full
// analysis pipeline over it.
func genScenario(t *testing.T, ref string, scale float64, seed uint64, hours int) (*Dataset, *Results) {
	t.Helper()
	rs, err := scenario.Resolve(ref, scenario.Options{Scale: scale, Seed: seed, Hours: hours})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(scale, seed)
	cfg.Hours = hours
	ds, err := GenerateScenario(cfg, rs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Manifest == nil || ds.Manifest.ConfigHash != rs.ConfigHash {
		t.Fatalf("dataset manifest not stamped: %+v", ds.Manifest)
	}
	res, err := ds.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, res
}

// cohort returns the planted member IDs for an extension kind.
func cohort(t *testing.T, ds *Dataset, kind string) []int {
	t.Helper()
	ids := ds.Truth.Cohorts[kind]
	if len(ids) == 0 {
		t.Fatalf("scenario planted no %q cohort", kind)
	}
	return ids
}

// detectedFrac returns the fraction of ids the correlator inferred.
func detectedFrac(res *correlate.Result, ids []int) float64 {
	hit := 0
	for _, id := range ids {
		if _, ok := res.Devices[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(ids))
}

// The Mirai-style wave: the cohort is recovered scanning telnet, infections
// spread over the ramp instead of arriving at once, and early bots churn
// out before the window ends.
func TestScenarioMiraiWave(t *testing.T) {
	ds, res := genScenario(t, "mirai-wave", 0.004, 11, 48)
	bots := cohort(t, ds, "mirai-wave")
	if f := detectedFrac(res.Correlate, bots); f < 0.8 {
		t.Fatalf("only %.0f%% of the wave detected", 100*f)
	}
	agg := res.Correlate.TCPScanPorts[23]
	if agg == nil || agg.Packets == 0 {
		t.Fatal("no telnet scanning recovered")
	}
	first, last := 1<<30, -1
	churned := 0
	for _, id := range bots {
		d, ok := res.Correlate.Devices[id]
		if !ok {
			continue
		}
		if d.Packets[classify.ScanTCP.Index()] == 0 {
			t.Fatalf("bot %d detected without TCP scanning", id)
		}
		if d.FirstSeen < first {
			first = d.FirstSeen
		}
		if d.FirstSeen > last {
			last = d.FirstSeen
		}
		// A bot inactive on the second day churned out of the botnet.
		if d.DayMask == 1 {
			churned++
		}
	}
	if last-first < 10 {
		t.Fatalf("infections not spread over the ramp: first seen %d..%d", first, last)
	}
	if churned == 0 {
		t.Fatal("no bot churned out before the window ended")
	}
}

// UDP amplification: reflectors are recovered as UDP-only sources — they
// reflect, they do not scan.
func TestScenarioUDPAmplification(t *testing.T) {
	ds, res := genScenario(t, "udp-amplification", 0.004, 11, 24)
	refl := cohort(t, ds, "udp-amplification")
	if f := detectedFrac(res.Correlate, refl); f < 0.8 {
		t.Fatalf("only %.0f%% of reflectors detected", 100*f)
	}
	for _, id := range refl {
		d, ok := res.Correlate.Devices[id]
		if !ok {
			continue
		}
		if d.Packets[classify.UDP.Index()] == 0 {
			t.Fatalf("reflector %d detected without UDP traffic", id)
		}
		if d.Packets[classify.ScanTCP.Index()] != 0 {
			t.Fatalf("reflector %d attributed TCP scanning", id)
		}
	}
}

// The stealth scan: detection must see the cohort, notification must not
// page on it — sub-threshold devices stay out of every abuse bundle while
// the loud baseline still produces reports.
func TestScenarioStealthScan(t *testing.T) {
	ds, res := genScenario(t, "stealth-scan", 0.004, 11, 24)
	scanners := cohort(t, ds, "stealth-scan")
	if f := detectedFrac(res.Correlate, scanners); f < 0.8 {
		t.Fatalf("only %.0f%% of stealth scanners detected", 100*f)
	}
	agg := res.Correlate.TCPScanPorts[8291]
	if agg == nil || agg.Packets == 0 {
		t.Fatal("no Winbox probing recovered")
	}
	inCohort := make(map[int]bool, len(scanners))
	var maxCohortPackets uint64
	for _, id := range scanners {
		inCohort[id] = true
		if d, ok := res.Correlate.Devices[id]; ok && d.TotalPackets() > maxCohortPackets {
			maxCohortPackets = d.TotalPackets()
		}
	}
	floor := uint64(500)
	if maxCohortPackets >= floor {
		t.Fatalf("cohort not sub-threshold: loudest emits %d >= floor %d", maxCohortPackets, floor)
	}
	bundles := notify.BuildBundles(notify.Sources{Result: res.Correlate, Inventory: ds.Inventory, Registry: ds.Registry},
		notify.Config{MinDevices: 1, MinPackets: floor})
	if len(bundles) == 0 {
		t.Fatal("noise floor silenced the loud baseline too")
	}
	for _, b := range bundles {
		for _, d := range b.Devices {
			if inCohort[d.Device] {
				t.Fatalf("stealth scanner %d paged to %s despite the %d-packet floor", d.Device, b.ISP, floor)
			}
		}
	}
}

// The CPS campaign: industrial ports are scanned by CPS devices, inside the
// configured window and not before it.
func TestScenarioCPSCampaign(t *testing.T) {
	ds, res := genScenario(t, "cps-campaign", 0.004, 11, 48)
	devs := cohort(t, ds, "cps-campaign")
	if f := detectedFrac(res.Correlate, devs); f < 0.8 {
		t.Fatalf("only %.0f%% of the campaign detected", 100*f)
	}
	for _, port := range []uint16{502, 47808} {
		agg := res.Correlate.TCPScanPorts[port]
		if agg == nil || agg.Packets == 0 {
			t.Fatalf("no scanning recovered on industrial port %d", port)
		}
		if len(agg.DevicesCPS) == 0 {
			t.Fatalf("port %d scanning not attributed to CPS devices", port)
		}
		var before, during uint64
		for h, cells := range res.Correlate.TCPPortHour {
			for _, c := range cells {
				if c.Port != port {
					continue
				}
				if h < 30 {
					before += c.Packets
				} else {
					during += c.Packets
				}
			}
		}
		if during == 0 {
			t.Fatalf("port %d carries no packets inside the campaign window", port)
		}
		if before > during/10 {
			t.Fatalf("port %d not window-bound: %d packets before hour 30, %d after", port, before, during)
		}
	}
}

// Smart-home diurnal chatter is pure background: it raises the discarded
// background volume and changes nothing about the inferred device set.
func TestScenarioSmartHomeDiurnal(t *testing.T) {
	ds, res := genScenario(t, "smart-home-diurnal", 0.002, 11, 24)
	truth := make(map[int]bool, len(ds.Truth.Compromised))
	for _, id := range ds.Truth.Compromised {
		truth[id] = true
	}
	for id := range res.Correlate.Devices {
		if !truth[id] {
			t.Fatalf("diurnal noise inferred as device %d", id)
		}
	}

	// The same scenario with the diurnal block stripped: the inferred set
	// must be identical, the background strictly smaller.
	cfg, err := scenario.Load("smart-home-diurnal")
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	for i, a := range cfg.Actors {
		if a.Kind != "diurnal-background" {
			kept = append(kept, i)
		}
	}
	if len(kept) == len(cfg.Actors) {
		t.Fatal("scenario carries no diurnal block to strip")
	}
	stripped := *cfg
	stripped.Actors = nil
	for _, i := range kept {
		stripped.Actors = append(stripped.Actors, cfg.Actors[i])
	}
	js, err := stripped.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flat.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := scenario.Resolve(path, scenario.Options{Scale: 0.002, Seed: 11, Hours: 24})
	if err != nil {
		t.Fatal(err)
	}
	flatCfg := DefaultConfig(0.002, 11)
	flatCfg.Hours = 24
	flatDS, err := GenerateScenario(flatCfg, rs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flatRes, err := flatDS.Analyze(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correlate.Background.Records <= flatRes.Correlate.Background.Records {
		t.Fatalf("diurnal chatter did not raise background volume: %d vs %d",
			res.Correlate.Background.Records, flatRes.Correlate.Background.Records)
	}
	if len(res.Correlate.Devices) != len(flatRes.Correlate.Devices) {
		t.Fatalf("diurnal noise changed the inferred device count: %d vs %d",
			len(res.Correlate.Devices), len(flatRes.Correlate.Devices))
	}
	for id := range flatRes.Correlate.Devices {
		if _, ok := res.Correlate.Devices[id]; !ok {
			t.Fatalf("device %d lost under diurnal noise", id)
		}
	}
}

// Sub-telescope variants: the full paper workload stays recoverable from a
// /16 and a /24 vantage — including the planted DoS victims.
func TestScenarioSubTelescopes(t *testing.T) {
	cases := []struct {
		ref    string
		prefix string
	}{
		{"telescope-16", "44.0.0.0/16"},
		{"telescope-24", "44.0.0.0/24"},
	}
	for _, tc := range cases {
		t.Run(tc.ref, func(t *testing.T) {
			ds, res := genScenario(t, tc.ref, 0.004, 11, 12)
			if got := ds.Scenario.Geo.DarkPrefix; got != netx.MustParsePrefix(tc.prefix) {
				t.Fatalf("telescope is %v, want %s", got, tc.prefix)
			}
			if len(res.Correlate.Devices) == 0 {
				t.Fatal("nothing inferred through the sub-telescope")
			}
			// cn-ethip-1 floods during hours 6-8 of the window.
			victim, ok := ds.Truth.EventVictims["cn-ethip-1"]
			if !ok {
				t.Fatal("truth lost the cn-ethip-1 victim")
			}
			d, ok := res.Correlate.Devices[victim]
			if !ok {
				t.Fatalf("DoS victim %d not recovered", victim)
			}
			bs := d.Packets[classify.Backscatter.Index()]
			if bs == 0 {
				t.Fatalf("victim %d carries no backscatter", victim)
			}
			var inEvent uint64
			for h, n := range d.BackscatterHourly {
				if h >= 6 && h <= 8 {
					inEvent += n
				}
			}
			if inEvent == 0 {
				t.Fatal("victim backscatter not attributed to the event hours")
			}
			// The victim must appear on multiple days only if the window has
			// them; a 12-hour run is a single day.
			if bits.OnesCount64(d.DayMask) != 1 {
				t.Fatalf("unexpected day mask %b for a 12-hour window", d.DayMask)
			}
		})
	}
}
