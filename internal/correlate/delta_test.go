package correlate

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"iotscope/internal/wgen"
)

// cloneDelta detaches a delta from the buffers Delta aliases.
func cloneDelta(d *CheckpointDelta) *CheckpointDelta {
	out := *d
	out.QuarantinedHours = append([]int32(nil), d.QuarantinedHours...)
	out.Faults = append([]FaultExport(nil), d.Faults...)
	if d.Hour != nil {
		hd := *d.Hour
		hd.BGRegisters = append([]RegisterDelta(nil), hd.BGRegisters...)
		hd.Devices = append([]DeviceDelta(nil), hd.Devices...)
		hd.UDPPorts = append([]PortDelta(nil), hd.UDPPorts...)
		hd.TCPPorts = append([]TCPPortDelta(nil), hd.TCPPorts...)
		hd.UDPKeys = append([]uint64(nil), hd.UDPKeys...)
		hd.ConKeys = append([]uint64(nil), hd.ConKeys...)
		hd.CPSKeys = append([]uint64(nil), hd.CPSKeys...)
		out.Hour = &hd
	}
	return &out
}

func deltaFixture(t *testing.T, hours int) (string, *Correlator) {
	t.Helper()
	sc := wgen.Default(0.002, 431)
	sc.Hours = hours
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	return dir, New(g.Inventory(), Options{Workers: 1, FaultPolicy: Lenient})
}

// A base export plus the deltas of the hours sealed since restores, through
// the live merge, to exactly the state of the correlator that never
// stopped — and keeps agreeing with it when both ingest further. Windows
// and Ingest capture alike; finalizing between a seal and its Delta (as the
// alerting layer does) does not disturb the capture.
func TestDeltaReplayMatchesLive(t *testing.T) {
	const hours = 10
	dir, c := deltaFixture(t, hours)
	live, err := c.NewIncremental(hours)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := live.Delta(); !ok {
		t.Fatal("one sealed hour not expressible as a delta")
	}
	base := live.Export()
	for h := 1; h < hours-1; h++ {
		if h%2 == 0 {
			feedHour(t, live, dir, h, 97)
		} else if _, err := live.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
		live.Result() // a finalize between seal and commit
		d, ok := live.Delta()
		if !ok || d.Hour == nil || d.Hour.Stats.Hour != h {
			t.Fatalf("hour %d: delta %+v, ok %v", h, d, ok)
		}
		base.Deltas = append(base.Deltas, cloneDelta(d))

		restored, err := c.RestoreIncremental(base)
		if err != nil {
			t.Fatalf("hour %d: %v", h, err)
		}
		if got, want := restored.Export(), live.Export(); !reflect.DeepEqual(got, want) {
			t.Fatalf("hour %d: base + %d deltas diverged from the live run", h, len(base.Deltas))
		}
	}
	restored, err := c.RestoreIncremental(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range []*Incremental{live, restored} {
		if _, err := inc.Ingest(context.Background(), dir, hours-1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(restored.Export(), live.Export()) {
		t.Fatal("restored run diverged after ingesting further")
	}
	// A restored correlator starts with nothing unsaved.
	if d, ok := restored.Delta(); !ok || d.Hour == nil || d.Hour.Stats.Hour != hours-1 {
		t.Fatalf("first delta after a restore: %+v, ok %v", d, ok)
	}
}

// Delta expresses at most one sealed hour: with two unsaved it reports
// that the caller must export in full, and the count restarts after.
func TestDeltaSpansOneHour(t *testing.T) {
	dir, c := deltaFixture(t, 4)
	inc, err := c.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := inc.Delta(); !ok || d.Hour != nil {
		t.Fatalf("nothing sealed: %+v, %v", d, ok)
	}
	for h := 0; h < 2; h++ {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := inc.Delta(); ok {
		t.Fatal("two sealed hours offered as one delta")
	}
	inc.Quarantine(3, errors.New("gave up"))
	if d, ok := inc.Delta(); !ok || d.Hour != nil || len(d.QuarantinedHours) != 1 || d.IngestQuarantined != 1 {
		t.Fatalf("bookkeeping-only delta: %+v, %v", d, ok)
	}
	if _, err := inc.Ingest(context.Background(), dir, 2); err != nil {
		t.Fatal(err)
	}
	if d, ok := inc.Delta(); !ok || d.Hour == nil || d.Hour.Stats.Hour != 2 {
		t.Fatalf("delta after the count restarted: %+v, %v", d, ok)
	}
}

// Every way a delta can contradict the base or the inventory is
// ErrBadFormat — never a panic — and the half-loaded scratch a rejection
// recycles is clean: the next restore through the same pool is unaffected.
func TestDeltaReplayRejects(t *testing.T) {
	dir, c := deltaFixture(t, 4)
	inc, err := c.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	inc.Delta()
	base := inc.Export()
	if _, err := inc.Ingest(context.Background(), dir, 1); err != nil {
		t.Fatal(err)
	}
	d, _ := inc.Delta()
	good := cloneDelta(d)
	if len(good.Hour.Devices) < 2 || len(good.Hour.TCPPorts) < 2 || len(good.Hour.ConKeys)+len(good.Hour.CPSKeys) == 0 {
		t.Fatalf("fixture hour too quiet to mutate: %+v", good.Hour)
	}
	restore := func(d *CheckpointDelta) (*Incremental, error) {
		cp := *base
		cp.Deltas = []*CheckpointDelta{d}
		return c.RestoreIncremental(&cp)
	}
	if restored, err := restore(good); err != nil || !reflect.DeepEqual(restored.Export(), inc.Export()) {
		t.Fatalf("unmutated delta: %v", err)
	}
	tcpKeys := func(hd *HourDelta) *[]uint64 {
		if len(hd.ConKeys) > 0 {
			return &hd.ConKeys
		}
		return &hd.CPSKeys
	}
	cases := map[string]func(hd *HourDelta, d *CheckpointDelta){
		"hour past the window":        func(hd *HourDelta, _ *CheckpointDelta) { hd.Stats.Hour = 4 },
		"hour already ingested":       func(hd *HourDelta, _ *CheckpointDelta) { hd.Stats.Hour = 0 },
		"device outside inventory":    func(hd *HourDelta, _ *CheckpointDelta) { hd.Devices[0].ID = int32(c.inv.Len()) },
		"negative device":             func(hd *HourDelta, _ *CheckpointDelta) { hd.Devices[0].ID = -1 },
		"device listed twice":         func(hd *HourDelta, _ *CheckpointDelta) { hd.Devices[1].ID = hd.Devices[0].ID },
		"device with no records":      func(hd *HourDelta, _ *CheckpointDelta) { hd.Devices[0].Records = 0 },
		"TCP port listed twice":       func(hd *HourDelta, _ *CheckpointDelta) { hd.TCPPorts[1].Port = hd.TCPPorts[0].Port },
		"register outside the sketch": func(hd *HourDelta, _ *CheckpointDelta) { hd.BGRegisters = []RegisterDelta{{Index: 1 << 20, Rank: 1}} },
		"rank no hash can produce":    func(hd *HourDelta, _ *CheckpointDelta) { hd.BGRegisters = []RegisterDelta{{Index: 0, Rank: 60}} },
		"key for an untouched port":   func(hd *HourDelta, _ *CheckpointDelta) { (*tcpKeys(hd))[0] ^= 0xffff << 32 },
		"key for an untouched device": func(hd *HourDelta, _ *CheckpointDelta) { (*tcpKeys(hd))[0] |= 0x7fffffff },
		"key in the wrong realm": func(hd *HourDelta, _ *CheckpointDelta) {
			hd.ConKeys, hd.CPSKeys = hd.CPSKeys, hd.ConKeys
		},
		"quarantined hour also ingested": func(_ *HourDelta, d *CheckpointDelta) { d.QuarantinedHours = []int32{0} },
		"quarantined hours unsorted":     func(_ *HourDelta, d *CheckpointDelta) { d.QuarantinedHours = []int32{3, 2} },
		"faults unsorted":                func(_ *HourDelta, d *CheckpointDelta) { d.Faults = []FaultExport{{Hour: 3}, {Hour: 2}} },
	}
	for name, mutate := range cases {
		bad := cloneDelta(good)
		mutate(bad.Hour, bad)
		if _, err := restore(bad); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: %v, want ErrBadFormat", name, err)
		}
		if restored, err := restore(good); err != nil || !reflect.DeepEqual(restored.Export(), inc.Export()) {
			t.Fatalf("restore after rejecting %q: state diverged (%v)", name, err)
		}
	}
}
