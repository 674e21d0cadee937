package correlate

import (
	"context"
	"io"
	"math"
	"os"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/netx"
	"iotscope/internal/wgen"
)

// Worker-count invariance: merges are commutative, so 1 worker and many
// workers must produce identical results down to every counter and list
// entry. The serial run is held to the map-based reference
// (reference_test.go), so a fold that is wrong the same way at every
// worker count fails too.
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
	want, err := refProcessDataset(New(g.Inventory(), Options{Workers: 1}), dir)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, serial)
	for _, workers := range []int{2, 8} {
		parallel, err := New(g.Inventory(), Options{Workers: workers}).ProcessDataset(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, serial, parallel)
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
