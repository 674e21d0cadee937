package resultstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/wgen"
)

// makeDataset generates a small clean dataset and its generator.
func makeDataset(t *testing.T, seed uint64, hours int) (string, *wgen.Generator) {
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

// The acceptance bar for the store: Analyze → save → load is
// byte-identical (reflect.DeepEqual, the same oracle comparison the dense
// path is held to) at one and eight workers, strict and lenient, batch
// and incremental.
func TestResultRoundTrip(t *testing.T) {
	dir, g := makeDataset(t, 61, 6)
	for _, workers := range []int{1, 8} {
		for _, policy := range []correlate.FaultPolicy{correlate.Strict, correlate.Lenient} {
			c := correlate.New(g.Inventory(), correlate.Options{Workers: workers, FaultPolicy: policy})
			res, err := c.ProcessDataset(context.Background(), dir)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "result.irs")
			if err := WriteResult(path, res); err != nil {
				t.Fatal(err)
			}
			back, err := ReadResult(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, back) {
				t.Fatalf("workers=%d policy=%v: loaded result differs from original", workers, policy)
			}
		}
	}
}

func TestResultRoundTripIncremental(t *testing.T) {
	dir, g := makeDataset(t, 62, 5)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 2})
	inc, err := c.NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5; h++ {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	res := inc.Result()
	path := filepath.Join(t.TempDir(), "result.irs")
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("loaded incremental result differs from original")
	}
}

// A damaged dataset under Lenient carries fault records; the store must
// preserve their classification (the wrapped errors are reconstructed, so
// equality is at the export level plus retryability).
func TestResultRoundTripWithFaults(t *testing.T) {
	dir, g := makeDataset(t, 63, 5)
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 1), 1, 0x10); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(flowtuple.HourPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 2, FaultPolicy: correlate.Lenient})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ingest.Faults) == 0 {
		t.Fatal("expected recorded faults")
	}
	path := filepath.Join(t.TempDir(), "result.irs")
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Export(), back.Export()) {
		t.Fatal("export forms diverged through the store")
	}
	for i := range res.Ingest.Faults {
		w, g := res.Ingest.Faults[i], back.Ingest.Faults[i]
		if correlate.IsRetryable(w.Err) != correlate.IsRetryable(g.Err) {
			t.Fatalf("fault %d retryability lost in store round trip", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir, g := makeDataset(t, 64, 6)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 2})
	inc, err := c.NewIncremental(6)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	cp := inc.Export()
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, back) {
		t.Fatal("checkpoint differs after store round trip")
	}

	// The stored checkpoint restores and finishes to the batch result.
	resumed, err := c.RestoreIncremental(back)
	if err != nil {
		t.Fatal(err)
	}
	for h := 3; h < 6; h++ {
		if _, err := resumed.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	got, want := resumed.Result(), batch
	if !reflect.DeepEqual(want.Devices, got.Devices) ||
		!reflect.DeepEqual(want.Hourly, got.Hourly) ||
		!reflect.DeepEqual(want.UDPPorts, got.UDPPorts) ||
		!reflect.DeepEqual(want.TCPScanPorts, got.TCPScanPorts) ||
		!reflect.DeepEqual(want.TCPPortHour, got.TCPPortHour) ||
		want.Background != got.Background {
		t.Fatal("resumed-from-store result differs from cold batch run")
	}
}

func TestVerifyInfo(t *testing.T) {
	dir, g := makeDataset(t, 65, 4)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 2})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	rpath := filepath.Join(tmp, "result.irs")
	if err := WriteResult(rpath, res); err != nil {
		t.Fatal(err)
	}
	info, err := Verify(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != KindResult || info.Version != Version || info.Hours != 4 || info.Sections != 7 {
		t.Fatalf("result info = %+v", info)
	}

	inc, err := c.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(tmp, "checkpoint.irs")
	if err := WriteCheckpoint(cpath, inc.Export()); err != nil {
		t.Fatal(err)
	}
	info, err = Verify(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != KindCheckpoint || info.Sections != 8 {
		t.Fatalf("checkpoint info = %+v", info)
	}

	// Kind confusion is permanent, not retryable: a result loader must not
	// swallow a checkpoint and vice versa.
	if _, err := ReadResult(cpath); err == nil || IsRetryable(err) {
		t.Fatalf("ReadResult(checkpoint) = %v", err)
	}
	if _, err := ReadCheckpoint(rpath); err == nil || IsRetryable(err) {
		t.Fatalf("ReadCheckpoint(result) = %v", err)
	}
}

// Writes are atomic and deterministic: no .tmp residue, re-writing the
// same state produces identical bytes, and overwriting an existing store
// replaces it whole.
func TestWriteAtomicDeterministic(t *testing.T) {
	dir, g := makeDataset(t, 66, 3)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 2})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	path := filepath.Join(tmp, "result.irs")
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("same result encoded to different bytes")
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "result.irs" {
			t.Fatalf("unexpected residue %q", e.Name())
		}
	}
}
