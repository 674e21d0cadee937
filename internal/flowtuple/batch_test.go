package flowtuple

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iotscope/internal/rng"
)

// NextBatch over a healthy file must return exactly the records Next does,
// at every batch size from degenerate to full.
func TestNextBatchEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 5)
	r := rng.New(55)
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = randomRecord(r)
	}
	writeHourFile(t, path, 5, recs)

	want, err := drainNext(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(recs) {
		t.Fatalf("record drain read %d records, wrote %d", len(want), len(recs))
	}
	for _, size := range []int{1, 2, 7, 100, BatchSize} {
		got, err := drainBatch(t, path, size)
		if err != nil {
			t.Fatalf("batch=%d: %v", size, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch=%d drain diverged from record drain", size)
		}
	}
}

// A zero-length destination slice is a no-op, not an EOF or a panic; the
// stream position is untouched.
func TestNextBatchZeroDst(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 1)
	r := rng.New(56)
	writeHourFile(t, path, 1, []Record{randomRecord(r), randomRecord(r)})
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if n, err := rd.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = %d, %v", n, err)
	}
	got, err := drainBatch(t, path, 4)
	if err != nil || len(got) != 2 {
		t.Fatalf("drain after zero-dst call: %d records, %v", len(got), err)
	}
}

// NextBatch after Close fails with an ordinary error instead of a panic on
// the recycled buffers.
func TestNextBatchAfterClose(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 1)
	writeHourFile(t, path, 1, []Record{randomRecord(rng.New(57))})
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	var buf [4]Record
	if n, err := rd.NextBatch(buf[:]); n != 0 || err == nil {
		t.Fatalf("NextBatch after Close = %d, %v; want 0, error", n, err)
	}
	if _, err := rd.Next(); err == nil {
		t.Fatal("Next after Close succeeded")
	}
}

// WalkHourBatch delivers the records written, in the same order, reusing
// its batch buffer between callbacks.
func TestWalkHourBatchEquivalence(t *testing.T) {
	dir := t.TempDir()
	r := rng.New(58)
	recs := make([]Record, 2*BatchSize+17) // forces several full batches plus a tail
	for i := range recs {
		recs[i] = randomRecord(r)
	}
	writeHourFile(t, HourPath(dir, 0), 0, recs)

	var byBatch []Record
	var prev *Record
	batches := 0
	if err := WalkHourBatch(context.Background(), dir, 0, func(batch []Record) error {
		if batches > 0 && prev != &batch[0] {
			t.Error("batch buffer not reused between callbacks")
		}
		prev = &batch[0]
		batches++
		byBatch = append(byBatch, batch...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, byBatch) {
		t.Fatalf("walk diverged: wrote %d records, read %d", len(recs), len(byBatch))
	}
	if batches < 3 {
		t.Fatalf("expected >= 3 batches for %d records, got %d", len(recs), batches)
	}
}

// DatasetHours must list exactly the canonical hour files, skipping
// in-progress .tmp siblings, foreign files, and malformed names — and,
// unlike the old %03d scan, accept hours past 999.
func TestDatasetHoursSkipsJunk(t *testing.T) {
	dir := t.TempDir()
	touch := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []int{0, 3, 12, 1000} {
		touch(HourPath("", h))
	}
	for _, junk := range []string{
		"hour-004.ft.gz.tmp",    // in-progress atomic-rename sibling
		"hour-005.ft.gz.1234",   // stray suffix
		"hour-.ft.gz",           // no digits
		"hour-0x5.ft.gz",        // non-decimal
		"hour--12.ft.gz",        // sign
		"hour-7.gz",             // wrong extension
		"hour-1234567890.ft.gz", // too many digits
		"flow-001.ft.gz",        // wrong prefix
		"README.md",
		"hour-008.ft.gz.quarantine",
	} {
		touch(junk)
	}
	if err := os.Mkdir(filepath.Join(dir, "hour-009.ft.gz"), 0o755); err != nil {
		t.Fatal(err)
	}

	hours, err := DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The hour-009 directory parses as a canonical name; DatasetHours lists
	// by name, and the open fails later with an ordinary error — same as the
	// historical glob. So it is listed here.
	want := []int{0, 3, 9, 12, 1000}
	if !reflect.DeepEqual(hours, want) {
		t.Fatalf("DatasetHours = %v, want %v", hours, want)
	}

	if hs, err := DatasetHours(filepath.Join(dir, "does-not-exist")); err != nil || hs != nil {
		t.Fatalf("missing dir: %v, %v; want nil, nil", hs, err)
	}
}

func TestParseHourName(t *testing.T) {
	cases := []struct {
		name string
		hour int
		ok   bool
	}{
		{"hour-000.ft.gz", 0, true},
		{"hour-042.ft.gz", 42, true},
		{"hour-7.ft.gz", 7, true}, // unpadded still parses
		{"hour-1000.ft.gz", 1000, true},
		{"hour-999999999.ft.gz", 999999999, true},
		{"hour-1234567890.ft.gz", 0, false}, // > 9 digits
		{"hour-.ft.gz", 0, false},
		{"hour-001.ft.gz.tmp", 0, false},
		{"hour-001.ft.gz.quarantine", 0, false},
		{"hour-0 1.ft.gz", 0, false},
		{"hour--01.ft.gz", 0, false},
		{"xhour-001.ft.gz", 0, false},
		{"hour-001.ft.g", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		h, ok := parseHourName(tc.name)
		if ok != tc.ok || (ok && h != tc.hour) {
			t.Errorf("parseHourName(%q) = %d, %v; want %d, %v", tc.name, h, ok, tc.hour, tc.ok)
		}
	}
}
