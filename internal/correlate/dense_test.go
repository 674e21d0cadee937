package correlate

import (
	"context"
	"reflect"
	"testing"

	"iotscope/internal/flowtuple"
	"iotscope/internal/wgen"
)

// The dense path must be observationally identical to the historical map
// path (reference_test.go) — same Result bytes, same errors, same fault
// bookkeeping — at every worker count and fault policy the old code
// supported. These tests are the proof.

func cleanDataset(t *testing.T, seed uint64, hours int) (string, *wgen.Generator) {
	t.Helper()
	sc := wgen.Default(0.002, seed)
	sc.Hours = hours
	g, err := wgen.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := g.Run(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	return dir, g
}

// requireIdentical demands byte-identical Results, including ingestion
// bookkeeping, and reports the first field that diverged.
func requireIdentical(t *testing.T, want, got *Result) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	if !reflect.DeepEqual(want.Devices, got.Devices) {
		for id, w := range want.Devices {
			if g := got.Devices[id]; g == nil || !reflect.DeepEqual(w, g) {
				t.Fatalf("device %d diverged:\n reference %+v\n dense     %+v", id, w, got.Devices[id])
			}
		}
		t.Fatalf("dense path has %d devices, reference %d", len(got.Devices), len(want.Devices))
	}
	if !reflect.DeepEqual(want.Hourly, got.Hourly) {
		for h := range want.Hourly {
			if !reflect.DeepEqual(want.Hourly[h], got.Hourly[h]) {
				t.Fatalf("hour %d diverged:\n reference %+v\n dense     %+v", h, want.Hourly[h], got.Hourly[h])
			}
		}
	}
	if !reflect.DeepEqual(want.UDPPorts, got.UDPPorts) {
		t.Fatal("UDP port tables diverged")
	}
	if !reflect.DeepEqual(want.TCPScanPorts, got.TCPScanPorts) {
		t.Fatal("TCP scan port tables diverged")
	}
	if !reflect.DeepEqual(want.TCPPortHour, got.TCPPortHour) {
		t.Fatal("port-hour series diverged")
	}
	if want.Background != got.Background {
		t.Fatalf("background diverged: reference %+v dense %+v", want.Background, got.Background)
	}
	if !reflect.DeepEqual(want.Ingest, got.Ingest) {
		t.Fatalf("ingest stats diverged:\n reference %+v\n dense     %+v", want.Ingest, got.Ingest)
	}
	t.Fatalf("results diverged:\n reference %+v\n dense     %+v", want, got)
}

// Strict policy, clean dataset: the dense path reproduces the map path's
// Result exactly at one worker and at eight.
func TestDenseMatchesReferenceStrict(t *testing.T) {
	dir, g := cleanDataset(t, 41, 8)
	for _, workers := range []int{1, 8} {
		c := New(g.Inventory(), Options{Workers: workers})
		want, err := refProcessDataset(c, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ProcessDataset(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, got)
	}
}

// Lenient policy over a damaged dataset: both paths must quarantine the
// same hours with the same fault records and agree on everything the
// healthy hours contributed.
func TestDenseMatchesReferenceLenient(t *testing.T) {
	dir, g := damagedDataset(t)
	for _, workers := range []int{1, 8} {
		c := New(g.Inventory(), Options{Workers: workers, FaultPolicy: Lenient})
		want, err := refProcessDataset(c, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ProcessDataset(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, got)
	}
}

// Strict policy over a damaged dataset: both paths fail, with the same
// deterministic lowest-hour error.
func TestDenseMatchesReferenceStrictError(t *testing.T) {
	dir, g := damagedDataset(t)
	for _, workers := range []int{1, 8} {
		c := New(g.Inventory(), Options{Workers: workers})
		_, wantErr := refProcessDataset(c, dir)
		_, gotErr := c.ProcessDataset(context.Background(), dir)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("workers=%d: damaged dataset accepted (ref=%v dense=%v)", workers, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("workers=%d error diverged:\n reference %v\n dense     %v", workers, wantErr, gotErr)
		}
	}
}

// The incremental path shares the dense engine; hour-at-a-time ingestion
// must land on the reference batch result.
func TestDenseIncrementalMatchesReference(t *testing.T) {
	dir, g := cleanDataset(t, 43, 6)
	c := New(g.Inventory(), Options{Workers: 1})
	want, err := refProcessDataset(c, dir)
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
	for _, h := range hours {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatalf("hour %d: %v", h, err)
		}
	}
	sameData(t, want, inc.Result())
}

// Scratch recycling must not leak one hour's state into the next: running
// the same correlator over two different datasets back to back (pool warm)
// still matches fresh reference runs.
func TestScratchReuseIsClean(t *testing.T) {
	dir, g := cleanDataset(t, 44, 4)
	c := New(g.Inventory(), Options{Workers: 2})
	// First pass warms the scratch pool; the reference path never touches
	// it, so any state leaking across recycled scratches shows up as a
	// divergence on the second pass.
	if _, err := c.ProcessDataset(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	want, err := refProcessDataset(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
}
