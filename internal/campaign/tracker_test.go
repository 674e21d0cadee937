package campaign

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/profiling"
	"iotscope/internal/scenario"
	"iotscope/internal/wgen"
)

// world is a hand-built running result that applies hour deltas the way a
// seal does, and reports them the way correlate.WindowStats does.
type world struct {
	res    *correlate.Result
	ports  []uint16 // touched since the last window
	gained []uint64
}

func newWorld() *world {
	return &world{res: &correlate.Result{TCPScanPorts: make(map[uint16]*correlate.TCPPortAgg)}}
}

// scan adds packets to a port and, unless already there, the device to the
// port's consumer or CPS list.
func (w *world) scan(port uint16, dev int32, cps bool, pkts uint64) {
	agg := w.res.TCPScanPorts[port]
	if agg == nil {
		agg = &correlate.TCPPortAgg{}
		w.res.TCPScanPorts[port] = agg
	}
	agg.Packets += pkts
	if !slices.Contains(w.ports, port) {
		w.ports = append(w.ports, port)
	}
	list := &agg.DevicesConsumer
	if cps {
		list = &agg.DevicesCPS
	}
	if at, found := slices.BinarySearch(*list, dev); !found {
		*list = slices.Insert(*list, at, dev)
		w.gained = append(w.gained, uint64(port)<<32|uint64(dev))
	}
}

// window hands the pending delta to the tracker, as a sealed hour would.
func (w *world) window(t *Tracker) {
	t.Observe(w.res, w.ports, w.gained)
	w.ports, w.gained = w.ports[:0], w.gained[:0]
}

// checkAgainstDetect is the tracker's contract: whatever it has observed, it
// reports what a fresh Detect of that result reports, and so does a tracker
// bulk-loaded from it.
func checkAgainstDetect(t *testing.T, when string, tr *Tracker, res *correlate.Result) []Campaign {
	t.Helper()
	want, err := Detect(res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Campaigns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tracker reports %+v, Detect %+v", when, got, want)
	}
	if got := NewTracker(res, DefaultConfig()).Campaigns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: bulk-loaded tracker reports %+v, Detect %+v", when, got, want)
	}
	return want
}

// TestTrackerMatchesDetectEveryWindow follows three bundled scenarios hour
// by hour: after every seal the tracker, fed only what correlate.WindowStats
// says the hour changed, must equal a fresh Detect of the running result.
func TestTrackerMatchesDetectEveryWindow(t *testing.T) {
	for _, name := range []string{"paper-default", "mirai-wave", "stealth-scan"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rs, err := scenario.Resolve(name, scenario.Options{Scale: 0.002, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			g, err := wgen.New(rs.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := g.Run(context.Background(), dir); err != nil {
				t.Fatal(err)
			}
			inc, err := correlate.New(g.Inventory(), correlate.Options{}).NewIncremental(rs.Scenario.Hours)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracker(inc.Result(), DefaultConfig())
			buf := make([]flowtuple.Record, flowtuple.BatchSize)
			detected, moved := 0, 0
			var last []Campaign
			for h := 0; h < rs.Scenario.Hours; h++ {
				w, err := inc.OpenWindow(h)
				if err != nil {
					t.Fatal(err)
				}
				rd, err := flowtuple.Open(flowtuple.HourPath(dir, h))
				if err != nil {
					t.Fatal(err)
				}
				for err == nil {
					var n int
					n, err = rd.NextBatch(buf)
					if ferr := w.Feed(buf[:n]); ferr != nil {
						t.Fatal(ferr)
					}
				}
				rd.Close()
				if err != io.EOF {
					t.Fatal(err)
				}
				ws, err := w.Seal()
				if err != nil {
					t.Fatal(err)
				}
				res := inc.Result()
				tr.Observe(res, ws.TCPPorts, ws.TCPGained)
				now := checkAgainstDetect(t, name, tr, res)
				if len(now) > 0 {
					detected++
				}
				if !reflect.DeepEqual(now, last) {
					moved++
				}
				last = now
			}
			if detected == 0 || moved < 2 {
				t.Fatalf("%d of %d windows had campaigns and the answer moved %d times: the comparison proved nothing",
					detected, rs.Scenario.Hours, moved)
			}
		})
	}
}

// A device listed under both realms of one port is one cell carrying twice
// the port's share, however the tracker learned of it: bulk-loaded, both
// keys gained in one window, or the second realm gained windows later.
func TestTrackerOneCellPerDevicePort(t *testing.T) {
	w := newWorld()
	w.scan(80, 1, false, 100)
	w.scan(80, 2, false, 100)
	w.scan(80, 2, true, 100) // bulk: device 2 in both realms
	w.scan(80, 3, true, 100)
	w.ports, w.gained = nil, nil
	tr := NewTracker(w.res, DefaultConfig())

	w.scan(80, 4, false, 50) // one window, both realms
	w.scan(80, 4, true, 50)
	w.window(tr)
	checkAgainstDetect(t, "both realms in one window", tr, w.res)

	w.scan(80, 1, true, 0) // the second realm, a window later
	w.window(tr)
	got := checkAgainstDetect(t, "second realm a window later", tr, w.res)

	// 500 packets over 7 list entries: share 71, devices 1, 2 and 4 twice.
	want := []Campaign{{Devices: []int{1, 2, 3, 4}, Ports: []uint16{80}, Packets: 7 * 71}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("campaigns %+v, want %+v", got, want)
	}
	for id, cells := range map[int][]cell{
		1: {{80, 2}}, 2: {{80, 2}}, 3: {{80, 1}}, 4: {{80, 2}},
	} {
		if got := tr.devs[tr.slot[id]-1].cells; !slices.Equal(got, cells) {
			t.Errorf("device %d holds cells %v, want %v", id, got, cells)
		}
	}
}

// TestObserveCostFollowsTheWindow pins what a seal may touch. The tracker is
// loaded from a result with 30 000 scanned ports, then shown a window's
// change through a result holding *only* the window's three ports: Observe can
// therefore have read no other aggregate, let alone walked them all, and it
// must still land on what a fresh Detect of the full result says. Its
// allocation stays far below any 65 536-slot table.
func TestObserveCostFollowsTheWindow(t *testing.T) {
	w := newWorld()
	for p := 0; p < 30000; p++ {
		w.scan(uint16(10000+p), 1000, false, 40) // a sprayer: no profile, many cells
	}
	for dev := int32(1); dev <= 4; dev++ {
		w.scan(23, dev, false, 500)
		w.scan(2323, dev, false, 300)
	}
	w.scan(22, 8, false, 900)
	w.ports, w.gained = nil, nil
	tr := NewTracker(w.res, DefaultConfig())

	w.scan(23, 5, false, 700) // an old port gains a device; its share moves
	w.scan(2323, 5, false, 10)
	w.scan(22, 9, true, 400) // a lone scanner gets company: a new campaign
	view := &correlate.Result{TCPScanPorts: make(map[uint16]*correlate.TCPPortAgg)}
	for _, p := range w.ports {
		view.TCPScanPorts[p] = w.res.TCPScanPorts[p]
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.Observe(view, w.ports, w.gained)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("Observe allocated %d bytes for a three-port window", got)
	}
	got := checkAgainstDetect(t, "stripped view", tr, w.res)
	if len(got) != 2 || len(got[0].Devices) != 5 || !slices.Equal(got[1].Devices, []int{8, 9}) {
		t.Fatalf("campaigns %+v", got)
	}
}

// A bulk load lays the ports out on correlate's pooled walk: beyond the dense
// port index the tracker keeps (65 536 four-byte slots), loading three ports
// allocates no port-sized table of its own.
func TestNewTrackerAllocatesNoPortSizedScratch(t *testing.T) {
	if profiling.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	res := synthetic(map[int][]uint16{1: {23, 2323}, 2: {23, 2323}, 3: {22}}, 100)
	const portIndex = 4 << 16
	if got := profiling.AllocBytes(20, func() { NewTracker(res, DefaultConfig()) }); got >= portIndex+1<<15 {
		t.Fatalf("NewTracker on three ports allocates %d bytes beyond its %d-byte port index", got-portIndex, portIndex)
	}
}

// fuzzPorts is the fuzzer's port palette: the four ports of
// TestDetectDeterministicAtThreshold first, then enough others for devices
// to become sprayers.
var fuzzPorts = func() []uint16 {
	ports := []uint16{23, 80, 8080, 22, 2323, 7547, 445, 5555}
	for p := uint16(9000); len(ports) < 40; p++ {
		ports = append(ports, p)
	}
	return ports
}()

// fuzzOp encodes one scan for FuzzTrackerMatchesDetect: four bytes, of which
// the first's top bit closes the hour after the scan and the second's picks
// the CPS realm.
func fuzzOp(port, dev int, cps, seal bool, pkts uint16) []byte {
	b := []byte{byte(port), byte(dev), byte(pkts >> 8), byte(pkts)}
	if seal {
		b[0] |= 0x80
	}
	if cps {
		b[1] |= 0x80
	}
	return b
}

// FuzzTrackerMatchesDetect drives a tracker with random hour deltas — ports
// gaining devices, packets growing, a port's device count growing with no
// packets so that its share falls — and demands a fresh Detect's answer after
// every hour.
func FuzzTrackerMatchesDetect(f *testing.F) {
	// The threshold-straddling pair of TestDetectDeterministicAtThreshold,
	// then hours that push it off the threshold either way.
	seed := slices.Concat(
		fuzzOp(0, 1, false, false, 58), fuzzOp(0, 2, false, false, 0),
		fuzzOp(1, 1, false, false, 34), fuzzOp(1, 2, true, false, 0),
		fuzzOp(2, 1, false, false, 23),
		fuzzOp(3, 7, false, false, 300), fuzzOp(3, 8, false, false, 0), fuzzOp(3, 9, false, true, 0),
		fuzzOp(2, 1, false, true, 1),
		fuzzOp(2, 3, false, true, 0),
		fuzzOp(1, 2, false, true, 40),
	)
	f.Add(seed)
	f.Add(slices.Concat(fuzzOp(4, 3, false, false, 9), fuzzOp(4, 4, true, true, 0), fuzzOp(4, 3, true, true, 7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWorld()
		tr := NewTracker(w.res, DefaultConfig())
		for hour := 0; len(data) >= 4; data = data[4:] {
			port := fuzzPorts[int(data[0]&0x7f)%len(fuzzPorts)]
			w.scan(port, int32(data[1]&0x7f)%24, data[1]&0x80 != 0, uint64(data[2])<<8|uint64(data[3]))
			if data[0]&0x80 != 0 || len(data) < 8 {
				w.window(tr)
				want, err := Detect(w.res, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if got := tr.Campaigns(); !reflect.DeepEqual(got, want) {
					t.Fatalf("hour %d: tracker reports %+v, Detect %+v", hour, got, want)
				}
				hour++
			}
		}
	})
}
