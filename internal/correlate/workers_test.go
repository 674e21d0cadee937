package correlate

import (
	"context"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/wgen"
)

// Worker-count invariance: merges are commutative, so 1 worker and many
// workers must produce identical results down to every counter.
func TestWorkerCountInvariance(t *testing.T) {
	sc := wgen.Default(0.002, 321)
	sc.Hours = 10
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}

	serial, err := New(g.Inventory(), Options{Workers: 1}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(g.Inventory(), Options{Workers: 8}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Devices) != len(parallel.Devices) {
		t.Fatalf("device counts differ: %d vs %d", len(serial.Devices), len(parallel.Devices))
	}
	for id, a := range serial.Devices {
		b := parallel.Devices[id]
		if b == nil {
			t.Fatalf("device %d missing in parallel run", id)
		}
		if a.FirstSeen != b.FirstSeen || a.Records != b.Records ||
			a.Packets != b.Packets || a.DayMask != b.DayMask ||
			a.MaxScanPorts != b.MaxScanPorts {
			t.Fatalf("device %d diverged:\n serial  %+v\n parallel %+v", id, a, b)
		}
		if !reflect.DeepEqual(a.BackscatterHourly, b.BackscatterHourly) {
			t.Fatalf("device %d backscatter hourly diverged", id)
		}
	}
	if !reflect.DeepEqual(serial.Hourly, parallel.Hourly) {
		t.Fatal("hourly aggregates diverged")
	}
	if !reflect.DeepEqual(serial.TCPPortHour, parallel.TCPPortHour) {
		t.Fatal("port-hour series diverged")
	}
	for port, a := range serial.UDPPorts {
		b := parallel.UDPPorts[port]
		if b == nil || a.Packets != b.Packets || len(a.Devices) != len(b.Devices) {
			t.Fatalf("UDP port %d diverged", port)
		}
	}
	for port, a := range serial.TCPScanPorts {
		b := parallel.TCPScanPorts[port]
		if b == nil || a.Packets != b.Packets || a.PacketsConsumer != b.PacketsConsumer ||
			len(a.DevicesConsumer) != len(b.DevicesConsumer) ||
			len(a.DevicesCPS) != len(b.DevicesCPS) {
			t.Fatalf("TCP port %d diverged", port)
		}
	}
	if serial.Background.Records != parallel.Background.Records ||
		serial.Background.Packets != parallel.Background.Packets {
		t.Fatal("background diverged")
	}
}

// A dataset with a gap (missing hour file in the middle) still processes:
// present hours are analyzed, the gap hour stays zero (the paper itself
// dropped the incomplete April 18 data).
func TestMissingHourTolerated(t *testing.T) {
	sc := wgen.Default(0.002, 322)
	sc.Hours = 6
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	// Remove hour 3.
	if err := removeHour(dir, 3); err != nil {
		t.Fatal(err)
	}
	res, err := New(g.Inventory(), Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hours != 6 {
		t.Fatalf("hours %d", res.Hours)
	}
	h3 := res.Hourly[3]
	if h3.RecordsIoT != 0 {
		t.Fatal("gap hour has records")
	}
	if res.Hourly[2].RecordsIoT == 0 || res.Hourly[4].RecordsIoT == 0 {
		t.Fatal("adjacent hours empty")
	}
}

func removeHour(dir string, hour int) error {
	return os.Remove(flowtuple.HourPath(dir, hour))
}

// The one sketch left, the background-sources HLL, must count the distinct
// non-inventory sources of a scale-0.01 dataset within HLL error: merged
// across hours and workers, it still agrees with an exact set.
func TestSketchAccuracyAtScale(t *testing.T) {
	sc := wgen.Default(0.01, 323)
	sc.Hours = 6
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	res, err := New(g.Inventory(), Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	exact := make(map[uint32]struct{})
	batch := make([]flowtuple.Record, flowtuple.BatchSize)
	for h := 0; h < sc.Hours; h++ {
		rd, err := flowtuple.Open(flowtuple.HourPath(dir, h))
		if err != nil {
			t.Fatal(err)
		}
		for {
			n, err := rd.NextBatch(batch)
			for _, rec := range batch[:n] {
				if _, iot := g.Inventory().LookupIP(netx.Addr(rec.SrcIP)); !iot {
					exact[rec.SrcIP] = struct{}{}
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rd.Close()
	}
	ev, av := float64(len(exact)), float64(res.Background.Sources)
	if ev < 500 || math.Abs(av-ev)/ev > 0.03 {
		t.Fatalf("background sources: exact %.0f, estimate %.0f (want ≥ 500, within 3%%)", ev, av)
	}
}
