package correlate

import (
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/profiling"
	"iotscope/internal/wgen"
)

// fillWindow opens a window on the hour and pushes the complete hour file
// through it in batches of batchLen records.
func fillWindow(t *testing.T, inc *Incremental, dir string, hour, batchLen int) *Window {
	t.Helper()
	w, err := inc.OpenWindow(hour)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := flowtuple.Open(flowtuple.HourPath(dir, hour))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	buf := make([]flowtuple.Record, batchLen)
	for {
		n, err := rd.NextBatch(buf)
		if n > 0 {
			if err := w.Feed(buf[:n]); err != nil {
				t.Fatal(err)
			}
		}
		if err == io.EOF {
			return w
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// feedHour fills a window and seals it, returning the seal stats.
func feedHour(t *testing.T, inc *Incremental, dir string, hour, batchLen int) WindowStats {
	t.Helper()
	st, err := fillWindow(t, inc, dir, hour, batchLen).Seal()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWindowMatchesIngest proves the streaming lifecycle — OpenWindow,
// Feed in arbitrary batch sizes, Seal — reaches canonically identical
// state to Ingest on the same hours: same fresh-device notifications per
// hour and deeply equal checkpoint exports (the exact struct the result
// store encodes deterministically).
func TestWindowMatchesIngest(t *testing.T) {
	sc := wgen.Default(0.002, 411)
	sc.Hours = 8
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	c1 := New(g.Inventory(), Options{FaultPolicy: Lenient})
	c2 := New(g.Inventory(), Options{FaultPolicy: Lenient})
	batch, err := c1.NewIncremental(sc.Hours)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := c2.NewIncremental(sc.Hours)
	if err != nil {
		t.Fatal(err)
	}
	// Odd batch length so window boundaries never align with the reader's
	// internal framing.
	const batchLen = 17
	for h := 0; h < sc.Hours; h++ {
		fresh, err := batch.Ingest(context.Background(), dir, h)
		if err != nil {
			t.Fatal(err)
		}
		st := feedHour(t, streamed, dir, h, batchLen)
		if !reflect.DeepEqual(st.Fresh, fresh) {
			t.Fatalf("hour %d fresh devices diverged: window %v vs ingest %v", h, st.Fresh, fresh)
		}
		if st.Hour != h || st.Records == 0 || st.RecordsIoT == 0 {
			t.Fatalf("hour %d implausible window stats: %+v", h, st)
		}
		res := batch.Result()
		var wantIoT uint64
		for ci := range res.Hourly[h].PerCat {
			for _, v := range res.Hourly[h].PerCat[ci].Packets {
				wantIoT += v
			}
		}
		if st.IoTPackets != wantIoT {
			t.Fatalf("hour %d IoT packets %d, ingest says %d", h, st.IoTPackets, wantIoT)
		}
	}
	got, want := streamed.Export(), batch.Export()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streaming export diverged from ingest export")
	}
}

// TestWindowAbortDiscardsWhole proves an aborted window contributes
// nothing: after Abort the hour re-opens cleanly and the final state
// matches a run that never aborted.
func TestWindowAbortDiscardsWhole(t *testing.T) {
	dir, inv := buildTinyDataset(t)
	c1, c2 := New(inv, Options{}), New(inv, Options{})
	clean, err := c1.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	inc, err := c2.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := inc.OpenWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	// Feed a little, then abandon the window entirely.
	if err := w.Feed([]flowtuple.Record{{SrcIP: 1, Packets: 9}}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w.Abort() // idempotent
	if _, err := w.Seal(); err == nil {
		t.Fatal("seal after abort accepted")
	}
	if inc.Ingested(0) {
		t.Fatal("aborted hour marked ingested")
	}
	feedHour(t, inc, dir, 0, 5)
	if !reflect.DeepEqual(inc.Export(), clean.Export()) {
		t.Fatal("abort leaked state into the result")
	}
}

func TestWindowGuards(t *testing.T) {
	dir, inv := buildTinyDataset(t)
	inc, err := New(inv, Options{FaultPolicy: Lenient}).NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.OpenWindow(-1); err == nil {
		t.Fatal("negative hour accepted")
	}
	if _, err := inc.OpenWindow(4); err == nil {
		t.Fatal("hour beyond capacity accepted")
	}
	feedHour(t, inc, dir, 0, 3)
	if _, err := inc.OpenWindow(0); err == nil {
		t.Fatal("already-ingested hour accepted")
	}
	inc.Quarantine(1, errors.New("given up"))
	if _, err := inc.OpenWindow(1); err == nil {
		t.Fatal("quarantined hour accepted")
	}
	w, err := inc.OpenWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := w.Feed(nil); err == nil {
		t.Fatal("feed after seal accepted")
	}
	if !inc.Ingested(2) {
		t.Fatal("sealed empty window not marked ingested")
	}
}

// TestSealRefusesSettledHour: the guard OpenWindow applies is applied again
// at the merge, because an hour can be settled while a window on it is
// open. Two windows on hour 3 — and a window overtaken by an Ingest — must
// merge once: the late Seal fails, the running state is untouched (not
// overwritten, not doubled), and the refused scratch is back in the pool.
func TestSealRefusesSettledHour(t *testing.T) {
	dir, g := cleanDataset(t, 412, 5)
	c := New(g.Inventory(), Options{})
	inc, err := c.NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	// One P and no GC make the pool exact; see TestWindowAbortRecyclesScratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first, second, overtaken := fillWindow(t, inc, dir, 3, 512), fillWindow(t, inc, dir, 3, 512), fillWindow(t, inc, dir, 4, 512)
	if _, err := inc.Ingest(context.Background(), dir, 4); err != nil {
		t.Fatal(err)
	}

	if _, err := first.Seal(); err != nil {
		t.Fatal(err)
	}
	want := inc.Export()
	allocs := c.scratchAllocs.Load()
	if _, err := second.Seal(); err == nil {
		t.Error("second window on hour 3 sealed: the hour was merged twice")
	}
	if _, err := overtaken.Seal(); err == nil {
		t.Error("window sealed over an hour Ingest had already merged")
	}
	// Four scratches are back in the pool (Ingest's, the merged window's, the
	// two refused): four more windows construct nothing. Under the race
	// detector sync.Pool drops entries by design, so the count only holds
	// without it.
	for _, hour := range []int{0, 1, 2, 0} {
		w, err := inc.OpenWindow(hour)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
	}
	if grew := c.scratchAllocs.Load() - allocs; grew != 0 && !profiling.RaceEnabled {
		t.Errorf("refused seals leaked %d scratch(es) from the pool", grew)
	}
	if !reflect.DeepEqual(want, inc.Export()) {
		t.Error("a refused seal changed the running state")
	}
}

// TestFailHour pins the lenient fault bookkeeping: permanent corruption
// quarantines, retryable damage leaves the hour open, strict mode and
// context errors record nothing — mirroring Ingest's own error path.
func TestFailHour(t *testing.T) {
	_, inv := buildTinyDataset(t)
	lenient, err := New(inv, Options{FaultPolicy: Lenient}).NewIncremental(8)
	if err != nil {
		t.Fatal(err)
	}
	lenient.FailHour(0, flowtuple.ErrTruncated) // retryable: no quarantine
	if lenient.Quarantined(0) {
		t.Fatal("retryable fault quarantined the hour")
	}
	if st := lenient.Stats(); len(st.Faults) != 1 || st.Faults[0].Attempts != 1 {
		t.Fatalf("retryable fault not recorded: %+v", lenient.Stats())
	}
	lenient.FailHour(1, flowtuple.ErrBadFormat) // permanent: quarantine
	if !lenient.Quarantined(1) {
		t.Fatal("permanent fault did not quarantine")
	}
	if got := lenient.QuarantinedHours(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("QuarantinedHours = %v", got)
	}
	lenient.FailHour(1, flowtuple.ErrBadFormat) // idempotent once quarantined
	if st := lenient.Stats(); st.HoursQuarantined != 1 {
		t.Fatalf("quarantine double-counted: %+v", st)
	}
	lenient.FailHour(2, context.Canceled) // ctx error records nothing
	if st := lenient.Stats(); len(st.Faults) != 2 {
		t.Fatalf("context error recorded a fault: %+v", st)
	}

	strict, err := New(inv, Options{}).NewIncremental(8)
	if err != nil {
		t.Fatal(err)
	}
	strict.FailHour(0, flowtuple.ErrBadFormat)
	if st := strict.Stats(); len(st.Faults) != 0 || st.HoursQuarantined != 0 {
		t.Fatalf("strict policy recorded a fault: %+v", st)
	}
}
