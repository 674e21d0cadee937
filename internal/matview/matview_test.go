package matview_test

// External test package so the fixture can run the real pipeline through
// internal/core (which itself imports matview for the materialize stage).

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"iotscope/internal/core"
	"iotscope/internal/matview"
	"iotscope/internal/notify"
)

var (
	mvOnce sync.Once
	mvErr  error
	mvDS   *core.Dataset
	mvRes  *core.Results
)

func fixture(t *testing.T) (*core.Dataset, *core.Results, *matview.Views) {
	t.Helper()
	mvOnce.Do(func() {
		dir, err := os.MkdirTemp("", "matview-*")
		if err != nil {
			mvErr = err
			return
		}
		defer os.RemoveAll(dir)
		cfg := core.DefaultConfig(0.004, 515)
		cfg.Hours = 48
		mvDS, mvErr = core.Generate(cfg, dir)
		if mvErr != nil {
			return
		}
		mvRes, mvErr = mvDS.Analyze(cfg)
	})
	if mvErr != nil {
		t.Fatal(mvErr)
	}
	if mvRes.Views == nil {
		t.Fatal("pipeline did not materialize views")
	}
	return mvDS, mvRes, mvRes.Views
}

func TestBuildValidation(t *testing.T) {
	ds, res, _ := fixture(t)
	bad := []matview.Sources{
		{},
		{Analyzer: res.Analyzer, Inventory: ds.Inventory, Registry: ds.Registry},
		{Result: res.Correlate, Inventory: ds.Inventory, Registry: ds.Registry},
		{Result: res.Correlate, Analyzer: res.Analyzer, Registry: ds.Registry},
		{Result: res.Correlate, Analyzer: res.Analyzer, Inventory: ds.Inventory},
	}
	for i, src := range bad {
		if _, err := matview.Build(src); err == nil {
			t.Errorf("case %d: incomplete sources accepted", i)
		}
	}
	// Threat is optional: lookups are empty, not nil panics.
	v, err := matview.Build(matview.Sources{
		Result: res.Correlate, Analyzer: res.Analyzer,
		Summary: res.Summary, StatTests: res.StatTests, Malware: res.Malware,
		Inventory: ds.Inventory, Registry: ds.Registry,
	})
	if err != nil {
		t.Fatalf("build without threat repo: %v", err)
	}
	if ev := v.ThreatEvents(ds.Inventory.At(0).IP); ev == nil || len(ev) != 0 {
		t.Fatalf("threat-less views: events %v", ev)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	cases := []struct {
		country, category string
		afterID           int
	}{
		{"", "", -1}, {"RU", "", 0}, {"", "cps", 42},
		{"US", "consumer", 1 << 30}, {"weird country", "with\x1fsep", 7},
	}
	for _, tc := range cases {
		c := matview.EncodeCursor(tc.country, tc.category, tc.afterID)
		country, category, afterID, err := matview.DecodeCursor(c)
		if tc.category == "with\x1fsep" {
			// A separator inside a field cannot round-trip; it must be
			// rejected, never mis-parsed.
			if err == nil {
				t.Errorf("cursor with embedded separator decoded to %q %q %d", country, category, afterID)
			}
			continue
		}
		if err != nil || country != tc.country || category != tc.category || afterID != tc.afterID {
			t.Errorf("round trip %+v → %q %q %d, %v", tc, country, category, afterID, err)
		}
	}

	for _, bad := range []string{
		"", "!!!", "bm90LWEtY3Vyc29y", // not base64 / not a cursor payload
		"x" + matview.EncodeCursor("US", "cps", 5), // corrupted head: version check fails
	} {
		if _, _, _, err := matview.DecodeCursor(bad); err == nil {
			t.Errorf("bad cursor %q accepted", bad)
		}
	}
}

// devicesBody is a /v1/devices response body as either appender renders it.
type devicesBody struct {
	Devices    []matview.Device `json:"devices"`
	Offset     int              `json:"offset"`
	NextCursor string           `json:"nextCursor"`
	Total      int              `json:"total"`
}

func decodeDevices(t *testing.T, buf *bytes.Buffer) devicesBody {
	t.Helper()
	var b devicesBody
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatalf("devices body does not parse: %v\n%s", err, buf)
	}
	return b
}

func offsetPage(t *testing.T, v *matview.Views, country, category string, offset, limit int) devicesBody {
	t.Helper()
	var buf bytes.Buffer
	v.AppendDeviceSliceBody(&buf, country, category, offset, limit)
	return decodeDevices(t, &buf)
}

func cursorPage(t *testing.T, v *matview.Views, country, category string, afterID, limit int) devicesBody {
	t.Helper()
	var buf bytes.Buffer
	v.AppendDevicesAfterBody(&buf, country, category, afterID, limit)
	return decodeDevices(t, &buf)
}

// Offset paging and cursor paging must enumerate exactly the same rows:
// following nextCursor through pages of 3 rebuilds the device array of the
// one offset page that holds every match.
func TestDeviceSliceMatchesDevicesAfter(t *testing.T) {
	_, _, v := fixture(t)
	first := cursorPage(t, v, "", "", -1, 1)
	if len(first.Devices) == 0 {
		t.Fatal("fixture inferred no devices")
	}
	d := first.Devices[0]
	filters := [][2]string{{"", ""}, {"ZZ", ""}, {"", "consumer"}, {"", "cps"},
		{d.Country, ""}, {d.Country, d.Category}}

	for _, f := range filters {
		country, category := f[0], f[1]
		all := offsetPage(t, v, country, category, 0, -1)
		if len(all.Devices) != all.Total {
			t.Fatalf("filter %v: offset body %d rows, total %d", f, len(all.Devices), all.Total)
		}

		var walked []matview.Device
		afterID := -1
		for {
			page := cursorPage(t, v, country, category, afterID, 3)
			if page.Total != all.Total {
				t.Fatalf("filter %v: cursor total %d, offset total %d", f, page.Total, all.Total)
			}
			walked = append(walked, page.Devices...)
			if page.NextCursor == "" {
				break
			}
			if len(page.Devices) == 0 {
				t.Fatalf("filter %v: nextCursor with an empty page", f)
			}
			c, cat, after, err := matview.DecodeCursor(page.NextCursor)
			if err != nil || c != country || cat != category || after != page.Devices[len(page.Devices)-1].ID {
				t.Fatalf("filter %v: nextCursor decodes to %q %q %d, %v", f, c, cat, after, err)
			}
			afterID = after
		}
		if !reflect.DeepEqual(walked, all.Devices) && !(len(walked) == 0 && len(all.Devices) == 0) {
			t.Fatalf("filter %v: cursor walk %d rows != offset body %d rows", f, len(walked), len(all.Devices))
		}
	}

	// Offset past the end: an empty page, the echoed offset clamped, a
	// stable total.
	past := offsetPage(t, v, "", "", v.NumDevices()+100, 10)
	if past.Devices == nil || len(past.Devices) != 0 || past.Offset != v.NumDevices() || past.Total != v.NumDevices() {
		t.Fatalf("past-end page: %+v", past)
	}
}

func TestTopUDPPrefix(t *testing.T) {
	_, res, v := fixture(t)
	full := v.TopUDP(0)
	if !reflect.DeepEqual(full, res.Analyzer.TopUDPPorts(0)) {
		t.Fatal("materialized UDP table diverges from the analyzer's")
	}
	if len(full) > 3 {
		if got := v.TopUDP(3); !reflect.DeepEqual(got, full[:3]) {
			t.Fatal("TopUDP(3) is not the 3-row prefix")
		}
	}
	if got := v.TopUDP(len(full) + 50); !reflect.DeepEqual(got, full) {
		t.Fatal("oversized n does not return the full table")
	}
	if got := v.TopUDP(-1); !reflect.DeepEqual(got, full) {
		t.Fatal("negative n does not return the full table")
	}
}

// encodeReports is the oracle the rendered reports body is held to: the
// serving layer's encoder over the bundles themselves.
func encodeReports(t *testing.T, bundles []notify.Bundle) string {
	t.Helper()
	b, err := matview.EncodeBody(map[string]any{"reports": bundles})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reportFloors is every minDevices worth asking of bundles (in builder
// order): each distinct device count and one past it (the prefix
// boundaries), 1, and MaxInt.
func reportFloors(bundles []notify.Bundle) []int {
	floors := []int{1, math.MaxInt}
	for i, b := range bundles {
		if i == 0 || len(b.Devices) != len(bundles[i-1].Devices) {
			floors = append(floors, len(b.Devices), len(b.Devices)+1)
		}
	}
	return floors
}

// The prefix of the rendered MinDevices=1 body must be, byte for byte, what
// the encoder writes for the bundles built with the larger floor — the
// property the /v1/reports materialization depends on.
func TestReportsMatchesNotifyBuild(t *testing.T) {
	ds, res, v := fixture(t)
	build := func(min int) []notify.Bundle {
		return notify.Build(res.Correlate, ds.Inventory, ds.Registry, ds.Threat,
			notify.Config{MinDevices: min, MinPackets: 1})
	}
	all := build(1)
	if len(all) < 2 || len(all[0].Devices) == len(all[len(all)-1].Devices) {
		t.Fatalf("fixture has %d bundles of one size; no interior prefix to check", len(all))
	}
	if st := v.Stats(); st.Bundles != len(all) || st.ReportsBytes != len(encodeReports(t, all)) {
		t.Fatalf("stats report %d bundles in %d bytes, want %d", st.Bundles, st.ReportsBytes, len(all))
	}
	for _, min := range reportFloors(all) {
		head, tail := v.ReportsBody(min)
		want := encodeReports(t, build(min))
		if got := string(head) + string(tail); got != want {
			t.Fatalf("minDevices=%d: rendered reports diverge (%d bytes vs %d)", min, len(got), len(want))
		}
	}
}

// The table on its own, over hand-made bundles: ties in device count, a
// name the encoder HTML-escapes, and no bundles at all ("[]", not "null").
func TestRenderReportsEveryFloor(t *testing.T) {
	bundle := func(isp string, devices int) notify.Bundle {
		b := notify.Bundle{ISP: isp, Devices: make([]notify.DeviceEntry, devices)}
		for i := range b.Devices {
			b.Devices[i] = notify.DeviceEntry{Device: i, Behaviours: []string{"scan"}, UDPPorts: []uint16{53}}
		}
		return b
	}
	for _, bundles := range [][]notify.Bundle{
		{},
		{bundle("solo", 2)},
		{bundle("AT&T <b>", 5), bundle("tie-a", 3), bundle("tie-b", 3), bundle("one", 1)},
	} {
		table, err := matview.RenderReports(bundles)
		if err != nil {
			t.Fatal(err)
		}
		for _, min := range reportFloors(bundles) {
			kept := []notify.Bundle{}
			for _, b := range bundles {
				if len(b.Devices) >= min {
					kept = append(kept, b)
				}
			}
			head, tail := table.Body(min)
			want := encodeReports(t, kept)
			if got := string(head) + string(tail); got != want {
				t.Fatalf("%d bundles, minDevices=%d:\ngot  %q\nwant %q", len(bundles), min, got, want)
			}
		}
	}
}

// The inverted victim index must attribute spikes exactly like the
// analyzer's per-episode device walk.
func TestDoSSpikesMatchesAnalysis(t *testing.T) {
	ds, res, v := fixture(t)
	for _, threshold := range []float64{1.5, 2.5, 8, 100} {
		want := res.Analyzer.DetectDoSSpikes(threshold)
		got := v.DoSSpikes(threshold)
		if len(got) != len(want) {
			t.Fatalf("threshold %v: %d spikes, analyzer %d", threshold, len(got), len(want))
		}
		for i, sp := range want {
			g := got[i]
			d := ds.Inventory.At(sp.TopDevice)
			if g.StartHour != sp.StartHour || g.EndHour != sp.EndHour ||
				g.Packets != sp.Packets || g.Victim != sp.TopDevice ||
				g.Share != sp.TopShare || g.Country != d.Country ||
				g.Category != d.Category.String() {
				t.Fatalf("threshold %v spike %d: %+v vs analyzer %+v", threshold, i, g, sp)
			}
		}
	}
}

func TestStatsSanity(t *testing.T) {
	_, _, v := fixture(t)
	st := v.Stats()
	if st.Devices != v.NumDevices() || st.Devices == 0 {
		t.Fatalf("stats devices %d, views %d", st.Devices, v.NumDevices())
	}
	if st.StaticBytes == 0 || st.FilterLists == 0 || st.Digest == "" {
		t.Fatalf("stats look empty: %+v", st)
	}
	// Every device appears in exactly 4 filter lists.
	if st.FilterEntries != 4*st.Devices {
		t.Fatalf("filter entries %d, want %d", st.FilterEntries, 4*st.Devices)
	}
}
