package correlate

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/wgen"
)

// damagedDataset generates a 6-hour dataset and injects the three
// operational failure modes of a live telescope feed: hour 2 bit-flipped
// (permanent corruption), hour 3 cleanly cut with no footer (in-progress
// shape, retryable), hour 4 missing entirely.
func damagedDataset(t *testing.T) (dir string, g *wgen.Generator) {
	t.Helper()
	sc := wgen.Default(0.002, 606)
	sc.Hours = 6
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	// Hour 2: flip a bit inside the gzip stream — permanent corruption.
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 2), 1, 0x10); err != nil {
		t.Fatal(err)
	}
	// Hour 3: keep a clean prefix with no footer — retryable truncation.
	n, err := faultfs.UncompressedLen(flowtuple.HourPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(flowtuple.HourPath(dir, 3), n/2); err != nil {
		t.Fatal(err)
	}
	// Hour 4: never arrived.
	if err := os.Remove(flowtuple.HourPath(dir, 4)); err != nil {
		t.Fatal(err)
	}
	return dir, g
}

// sameData compares everything a downstream consumer reads, ignoring the
// ingestion bookkeeping (which legitimately differs between one-shot batch
// and retried incremental runs).
func sameData(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Hours != b.Hours {
		t.Fatalf("hours %d != %d", a.Hours, b.Hours)
	}
	if !reflect.DeepEqual(a.Devices, b.Devices) {
		t.Fatal("device stats diverged")
	}
	if !reflect.DeepEqual(a.Hourly, b.Hourly) {
		t.Fatal("hourly stats diverged")
	}
	if !reflect.DeepEqual(a.UDPPorts, b.UDPPorts) {
		t.Fatal("UDP port tables diverged")
	}
	if !reflect.DeepEqual(a.TCPScanPorts, b.TCPScanPorts) {
		t.Fatal("TCP port tables diverged")
	}
	if !reflect.DeepEqual(a.TCPPortHour, b.TCPPortHour) {
		t.Fatal("port-hour series diverged")
	}
	if a.Background != b.Background {
		t.Fatalf("background diverged: %+v vs %+v", a.Background, b.Background)
	}
}

func TestStrictFailsFastDeterministically(t *testing.T) {
	dir, g := damagedDataset(t)
	c := New(g.Inventory(), Options{Workers: 3})
	for i := 0; i < 3; i++ {
		_, err := c.ProcessDataset(context.Background(), dir)
		if err == nil {
			t.Fatal("strict mode accepted damaged dataset")
		}
		if !errors.Is(err, flowtuple.ErrBadFormat) {
			t.Fatalf("strict error does not wrap ErrBadFormat: %v", err)
		}
		// Deterministic: always the lowest damaged hour regardless of
		// worker scheduling — hour 2's permanent corruption, never hour
		// 3's truncation.
		if errors.Is(err, flowtuple.ErrTruncated) {
			t.Fatalf("strict error should be hour 2's permanent corruption, got %v", err)
		}
	}
}

// With one worker, a strict run opens no hour file after the lowest damaged
// one. Hours 3 and 5 become FIFOs: opening one for reading blocks until a
// writer opens it too, so a watcher per FIFO learns of every open.
func TestStrictStopsDispatchAfterFailure(t *testing.T) {
	dir, g := damagedDataset(t)
	var settled atomic.Bool
	opened := make(chan int, 2)
	var wg sync.WaitGroup
	fifos := []int{3, 5}
	for _, h := range fifos {
		path := flowtuple.HourPath(dir, h)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mkfifo(path, 0o600); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Error(err)
				return
			}
			// The reader blocks on the empty FIFO until this close, so the
			// run cannot have returned yet when an open by it is seen here.
			if !settled.Load() {
				opened <- h
			}
			w.Close()
		}()
	}
	_, err := New(g.Inventory(), Options{Workers: 1}).ProcessDataset(context.Background(), dir)
	settled.Store(true)
	// Release the watchers whose FIFO nobody opened.
	for _, h := range fifos {
		r, err := os.OpenFile(flowtuple.HourPath(dir, h), os.O_RDONLY|syscall.O_NONBLOCK, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	wg.Wait()
	close(opened)
	for h := range opened {
		t.Errorf("strict run opened hour %d after hour 2 failed", h)
	}
	if !errors.Is(err, flowtuple.ErrBadFormat) || errors.Is(err, flowtuple.ErrTruncated) {
		t.Fatalf("strict error %v, want hour 2's corruption", err)
	}
}

func TestLenientBatchQuarantinesAndContinues(t *testing.T) {
	dir, g := damagedDataset(t)
	c := New(g.Inventory(), Options{Workers: 3, FaultPolicy: Lenient})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Ingest
	if st.HoursOK != 3 {
		t.Fatalf("hours ok %d, want 3 (hours 0, 1, 5)", st.HoursOK)
	}
	if st.HoursQuarantined != 2 {
		t.Fatalf("hours quarantined %d, want 2", st.HoursQuarantined)
	}
	if len(st.Faults) != 2 || st.Faults[0].Hour != 2 || st.Faults[1].Hour != 3 {
		t.Fatalf("faults %+v", st.Faults)
	}
	for _, f := range st.Faults {
		if !errors.Is(f.Err, flowtuple.ErrBadFormat) {
			t.Fatalf("hour %d fault does not wrap ErrBadFormat: %v", f.Hour, f.Err)
		}
	}
	if st.Faults[0].Retryable {
		t.Fatal("bit-flipped hour classified retryable")
	}
	if !st.Faults[1].Retryable {
		t.Fatal("truncated in-progress hour classified permanent")
	}
	// The damaged hours contributed nothing; the healthy ones everything.
	for _, h := range []int{2, 3, 4} {
		if res.Hourly[h].RecordsIoT != 0 {
			t.Fatalf("quarantined hour %d leaked records into the result", h)
		}
	}
	if res.TotalIoTPackets() == 0 {
		t.Fatal("healthy hours missing from lenient result")
	}
}

// The acceptance scenario: lenient batch and lenient incremental (with
// retries and an eventual quarantine) agree exactly on the valid hours.
func TestLenientBatchIncrementalEquivalence(t *testing.T) {
	dir, g := damagedDataset(t)
	c := New(g.Inventory(), Options{FaultPolicy: Lenient})
	batch, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	inc, err := c.NewIncremental(6)
	if err != nil {
		t.Fatal(err)
	}
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 5 {
		t.Fatalf("present hours %v", hours)
	}
	for _, h := range hours {
		_, err := inc.Ingest(context.Background(), dir, h)
		switch h {
		case 2:
			if err == nil || IsRetryable(err) {
				t.Fatalf("hour 2: want permanent error, got %v", err)
			}
			if !inc.Quarantined(2) {
				t.Fatal("permanent fault did not auto-quarantine")
			}
			// A second attempt is rejected outright.
			if _, err := inc.Ingest(context.Background(), dir, 2); err == nil {
				t.Fatal("quarantined hour re-ingested")
			}
		case 3:
			if err == nil || !IsRetryable(err) {
				t.Fatalf("hour 3: want retryable error, got %v", err)
			}
			// Retry twice (file never completes), then give up.
			for i := 0; i < 2; i++ {
				if _, err := inc.Ingest(context.Background(), dir, 3); err == nil || !IsRetryable(err) {
					t.Fatalf("hour 3 retry %d: %v", i, err)
				}
			}
			inc.Quarantine(3, err)
		default:
			if err != nil {
				t.Fatalf("healthy hour %d: %v", h, err)
			}
		}
	}
	live := inc.Result()
	sameData(t, batch, live)

	st := inc.Stats()
	if st.HoursOK != 3 || st.HoursQuarantined != 2 || st.HoursRetried != 0 {
		t.Fatalf("incremental stats %+v", st)
	}
	if len(st.Faults) != 2 || st.Faults[1].Attempts != 3 {
		t.Fatalf("faults %+v", st.Faults)
	}
	if inc.HoursIngested() != 3 {
		t.Fatalf("hours ingested %d", inc.HoursIngested())
	}
}

// An hour that fails while being written and succeeds once the writer
// finishes counts as retried, and its fault entry clears.
func TestIncrementalRetrySucceeds(t *testing.T) {
	sc := wgen.Default(0.002, 607)
	sc.Hours = 2
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	// Stash the complete hour 1, then publish an in-progress cut of it.
	path := flowtuple.HourPath(dir, 1)
	complete, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := faultfs.UncompressedLen(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(path, n/3); err != nil {
		t.Fatal(err)
	}

	c := New(g.Inventory(), Options{FaultPolicy: Lenient})
	inc, err := c.NewIncremental(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 1); err == nil || !IsRetryable(err) {
		t.Fatalf("in-progress hour: %v", err)
	}
	// The writer finishes; the retry succeeds.
	if err := os.WriteFile(path, complete, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 1); err != nil {
		t.Fatalf("retry after completion: %v", err)
	}
	st := inc.Stats()
	if st.HoursOK != 2 || st.HoursRetried != 1 || st.HoursQuarantined != 0 || len(st.Faults) != 0 {
		t.Fatalf("stats %+v", st)
	}

	// The final state matches a batch run over the completed dataset.
	batch, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, batch, inc.Result())
}

func TestStrictIncrementalRecordsNothing(t *testing.T) {
	dir, g := damagedDataset(t)
	c := New(g.Inventory(), Options{}) // strict
	inc, err := c.NewIncremental(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 2); err == nil {
		t.Fatal("corrupt hour accepted")
	}
	if inc.Quarantined(2) {
		t.Fatal("strict mode quarantined an hour")
	}
	st := inc.Stats()
	if st.HoursQuarantined != 0 || len(st.Faults) != 0 {
		t.Fatalf("strict mode recorded faults: %+v", st)
	}
	// Strict callers may still retry manually: the hour stays open.
	if _, err := inc.Ingest(context.Background(), dir, 2); err == nil {
		t.Fatal("corrupt hour accepted on retry")
	}
}
