package matview

import (
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/netx"
)

// spikeViews indexes a result's spikes over an inventory, without the rest
// of a build.
func spikeViews(t *testing.T, res *correlate.Result, devices []devicedb.Device) *Views {
	t.Helper()
	inv, err := devicedb.NewInventory(devices)
	if err != nil {
		t.Fatal(err)
	}
	v := &Views{inv: inv}
	v.buildSpikeIndex(res)
	return v
}

// A hand-built six-hour result checked against pencil and paper: one
// dominant victim inside the only hour that clears the cut.
func TestDoSSpikesHandBuilt(t *testing.T) {
	devices := []devicedb.Device{
		{ID: 0, IP: netx.MustParseAddr("1.0.0.1"), Category: devicedb.Consumer, Country: "RU"},
		{ID: 1, IP: netx.MustParseAddr("1.0.0.2"), Category: devicedb.Consumer, Country: "RU"},
		{ID: 2, IP: netx.MustParseAddr("1.0.0.3"), Category: devicedb.CPS, Country: "CN"},
		{ID: 3, IP: netx.MustParseAddr("1.0.0.4"), Category: devicedb.CPS, Country: "CN"},
	}
	res := &correlate.Result{
		Hours:   6,
		Devices: make(map[int]*correlate.DeviceStats),
		Hourly:  make([]correlate.HourStats, 6),
	}
	// Device 2 is the big victim, 990 of hour 3's backscatter; device 3
	// adds 20 there.
	res.Devices[2] = &correlate.DeviceStats{ID: 2, BackscatterHourly: map[int]uint64{2: 10, 3: 990}}
	res.Devices[3] = &correlate.DeviceStats{ID: 3, BackscatterHourly: map[int]uint64{3: 20}}
	cps := func(h int) *correlate.CatHour { return res.Hourly[h].Cat(devicedb.CPS) }
	cons := func(h int) *correlate.CatHour { return res.Hourly[h].Cat(devicedb.Consumer) }
	cons(0).Packets[classify.ScanTCP.Index()] = 100
	cons(1).Packets[classify.UDP.Index()] = 50
	for h, pkts := range map[int]uint64{2: 10, 3: 1010, 4: 8, 5: 12} {
		cps(h).Packets[classify.Backscatter.Index()] = pkts
	}

	v := spikeViews(t, res, devices)
	// Positive hours 8, 10, 12, 1010: median 11, so threshold 5 cuts at 55
	// and only hour 3 exceeds it.
	if v.spikes.median != 11 {
		t.Fatalf("median %v, want 11", v.spikes.median)
	}
	spikes := v.DoSSpikes(5)
	if len(spikes) != 1 {
		t.Fatalf("spikes %+v", spikes)
	}
	sp := spikes[0]
	if sp.StartHour != 3 || sp.EndHour != 3 || sp.Packets != 1010 {
		t.Fatalf("spike %+v", sp)
	}
	if sp.Victim != 2 || sp.Country != "CN" || sp.Category != "cps" {
		t.Fatalf("attributed to %+v", sp)
	}
	// Device 2 contributed 990 of 1010.
	if sp.Share < 0.97 || sp.Share > 0.99 {
		t.Fatalf("share %v", sp.Share)
	}
}

func TestDoSSpikesEmptyResult(t *testing.T) {
	res := &correlate.Result{Devices: map[int]*correlate.DeviceStats{}}
	if spikes := spikeViews(t, res, nil).DoSSpikes(5); spikes == nil || len(spikes) != 0 {
		t.Fatalf("spikes from empty result: %#v", spikes)
	}
}
