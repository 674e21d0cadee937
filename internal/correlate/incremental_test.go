package correlate

import (
	"context"
	"testing"

	"iotscope/internal/classify"
	"iotscope/internal/devicedb"
	"iotscope/internal/wgen"
)

func TestIncrementalMatchesBatch(t *testing.T) {
	sc := wgen.Default(0.002, 404)
	sc.Hours = 12
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	c := New(g.Inventory(), Options{})
	batch, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	inc, err := c.NewIncremental(sc.Hours)
	if err != nil {
		t.Fatal(err)
	}
	totalFresh := 0
	for h := 0; h < sc.Hours; h++ {
		fresh, err := inc.Ingest(context.Background(), dir, h)
		if err != nil {
			t.Fatal(err)
		}
		totalFresh += len(fresh)
		// Every "fresh" device must have this hour as its first-seen.
		for _, id := range fresh {
			if got := inc.Result().Devices[id].FirstSeen; got != h {
				t.Fatalf("device %d reported fresh at hour %d but first seen %d", id, h, got)
			}
		}
	}
	live := inc.Result()
	if totalFresh != len(batch.Devices) {
		t.Fatalf("fresh notifications %d != batch devices %d", totalFresh, len(batch.Devices))
	}
	if len(live.Devices) != len(batch.Devices) {
		t.Fatalf("incremental devices %d != batch %d", len(live.Devices), len(batch.Devices))
	}
	for id, b := range batch.Devices {
		l := live.Devices[id]
		if l == nil {
			t.Fatalf("device %d missing from incremental", id)
		}
		if l.FirstSeen != b.FirstSeen || l.Records != b.Records || l.Packets != b.Packets {
			t.Fatalf("device %d diverged: %+v vs %+v", id, l, b)
		}
	}
	if live.TotalIoTPackets() != batch.TotalIoTPackets() {
		t.Fatalf("packet totals diverged: %d vs %d",
			live.TotalIoTPackets(), batch.TotalIoTPackets())
	}
	if got := live.ClassPackets(classify.ScanTCP, 0); got != batch.ClassPackets(classify.ScanTCP, 0) {
		t.Fatal("scan totals diverged")
	}
	if live.Background.Packets != batch.Background.Packets {
		t.Fatal("background diverged")
	}
	if inc.HoursIngested() != sc.Hours {
		t.Fatalf("hours ingested %d", inc.HoursIngested())
	}
}

func TestIncrementalOutOfOrder(t *testing.T) {
	sc := wgen.Default(0.002, 405)
	sc.Hours = 6
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	c := New(g.Inventory(), Options{})
	batch, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := c.NewIncremental(sc.Hours)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse order: merges are commutative, first-seen still via min.
	for h := sc.Hours - 1; h >= 0; h-- {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	live := inc.Result()
	for id, b := range batch.Devices {
		if live.Devices[id] == nil || live.Devices[id].FirstSeen != b.FirstSeen {
			t.Fatalf("device %d first-seen diverged under out-of-order ingest", id)
		}
	}
}

func TestIncrementalGuards(t *testing.T) {
	inv := fixtureInventory(t)
	c := New(inv, Options{})
	if _, err := c.NewIncremental(0); err == nil {
		t.Fatal("maxHours 0 accepted")
	}
	inc, err := c.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), t.TempDir(), 9); err == nil {
		t.Fatal("hour beyond window accepted")
	}
	if _, err := inc.Ingest(context.Background(), t.TempDir(), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIncrementalDuplicateHour(t *testing.T) {
	dir, inv := buildTinyDataset(t)
	c := New(inv, Options{})
	inc, err := c.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err == nil {
		t.Fatal("duplicate hour accepted")
	}
}

func fixtureInventory(t *testing.T) *devicedb.Inventory {
	t.Helper()
	_, inv := buildTinyDataset(t)
	return inv
}
