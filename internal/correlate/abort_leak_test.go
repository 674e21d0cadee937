package correlate

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/profiling"
	"iotscope/internal/wgen"
)

// Abort's contract is that the window's pooled scratch goes back to the
// pool, not to the floor: a collector that opens and abandons windows all
// day (late data, upstream resets) must not grow the correlator's memory or
// leak goroutines. scratchAllocs counts fresh scratch constructions, so
// with the GC disabled (a sync.Pool may legitimately shed entries on GC)
// any Abort leak shows up as the counter climbing across cycles.
func TestWindowAbortRecyclesScratch(t *testing.T) {
	sc := wgen.Default(0.002, 707)
	sc.Hours = 2
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}

	rd, err := flowtuple.Open(flowtuple.HourPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]flowtuple.Record, 512)
	n, err := rd.NextBatch(batch)
	rd.Close()
	if n == 0 || (err != nil && err != io.EOF) {
		t.Fatalf("no records to feed: n=%d err=%v", n, err)
	}
	batch = batch[:n]

	// One P as well: a scratch parked in another P's private pool slot
	// cannot be drawn, so a migrating goroutine would construct a fresh one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, shards := range []int{1, 4} {
		windowAbortRecycles(t, New(g.Inventory(), Options{Workers: 1, Shards: shards}), batch)
	}
}

func windowAbortRecycles(t *testing.T, c *Correlator, batch []flowtuple.Record) {
	inc, err := c.NewIncremental(2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool: the first cycle legitimately constructs the planes.
	w, err := inc.OpenWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Feed(batch); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w.Abort() // idempotent: the second call must not double-put

	goroutines := runtime.NumGoroutine()
	allocs := c.scratchAllocs.Load()
	for i := 0; i < 1000; i++ {
		w, err := inc.OpenWindow(0)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := w.Feed(batch); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		w.Abort()
	}
	// Under the race detector sync.Pool.Put drops a random fraction of
	// entries by design, so the zero-growth assertion only holds without
	// it; the goroutine and reuse checks below still apply either way.
	if grew := c.scratchAllocs.Load() - allocs; grew != 0 && !profiling.RaceEnabled {
		t.Fatalf("1000 open/abort cycles constructed %d fresh scratches; Abort is leaking the pool", grew)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Fatalf("goroutines grew across open/abort cycles: %d -> %d", goroutines, now)
	}

	// The aborted hour stayed open: it can still be sealed for real.
	w, err = inc.OpenWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Feed(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seal(); err != nil {
		t.Fatal(err)
	}
}

// The other two ways in draw from the same pool, so they get the same
// assertion: 200 hours that fail mid-file or are cancelled — through the
// dataset driver and through Ingest, on one plane and on four — construct
// no scratch beyond the warm-up. One P and no GC make sync.Pool exact: a
// scratch put back is the next one drawn.
func TestFailedHoursRecycleScratch(t *testing.T) {
	dir, g := cleanDataset(t, 708, 4)
	for h := 0; h < 4; h++ {
		n, err := faultfs.UncompressedLen(flowtuple.HourPath(dir, h))
		if err != nil {
			t.Fatal(err)
		}
		if err := faultfs.RecompressPrefix(flowtuple.HourPath(dir, h), n/2); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, shards := range []int{1, 4} {
		c := New(g.Inventory(), Options{Workers: 1, Shards: shards, FaultPolicy: Lenient})
		inc, err := c.NewIncremental(4)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func(i int){
			"ProcessDataset": func(i int) {
				if i%4 != 0 {
					return // one run is four failed hours
				}
				res, err := c.ProcessDataset(context.Background(), dir)
				if err != nil || res.Ingest.HoursQuarantined != 4 {
					t.Fatalf("lenient run over four truncated hours: %+v, %v", res, err)
				}
			},
			"Ingest": func(i int) {
				ctx := context.Background()
				if i%2 == 1 {
					ctx = cancelled
				}
				if _, err := inc.Ingest(ctx, dir, i%4); err == nil {
					t.Fatalf("hour %d ingested from a truncated file", i%4)
				}
			},
		}
		for name, hour := range entries {
			hour(0) // warm-up
			hour(1)
			allocs := c.scratchAllocs.Load()
			for i := 0; i < 200; i++ {
				hour(i)
			}
			if grew := c.scratchAllocs.Load() - allocs; grew != 0 && !profiling.RaceEnabled {
				t.Errorf("%s shards=%d: 200 failed hours constructed %d fresh scratches", name, shards, grew)
			}
		}
		// Hours 0 and 2 failed retryably, hours 1 and 3 were only cancelled.
		if st := inc.Stats(); st.HoursOK != 0 || st.HoursQuarantined != 0 || len(st.Faults) != 2 {
			t.Errorf("shards=%d: a cancelled hour was booked, or a retryable one settled: %+v", shards, st)
		}
	}
}
