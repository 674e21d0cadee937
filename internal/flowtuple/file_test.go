package flowtuple

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/rng"
)

func randomRecord(r *rng.Source) Record {
	return Record{
		SrcIP:    uint32(r.Uint64() >> 32),
		DstIP:    uint32(r.Uint64() >> 32),
		SrcPort:  uint16(uint32(r.Uint64() >> 32)),
		DstPort:  uint16(uint32(r.Uint64() >> 32)),
		Protocol: uint8(r.Intn(256)),
		TTL:      uint8(r.Intn(256)),
		TCPFlags: uint8(r.Intn(64)),
		IPLen:    uint16(40 + r.Intn(1461)),
		Packets:  uint32(1 + r.Intn(10000)),
	}
}

func writeHourFile(t *testing.T, path string, hour uint32, recs []Record) {
	t.Helper()
	w, err := Create(path, hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := rng.New(1)
	recs := make([]Record, 5000)
	for i := range recs {
		recs[i] = randomRecord(r)
	}
	path := HourPath(dir, 7)
	writeHourFile(t, path, 7, recs)

	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Header().Hour != 7 {
		t.Fatalf("hour %d", rd.Header().Hour)
	}
	for i := range recs {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got, recs[i])
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last record: %v", err)
	}
	if rd.Header().Count != uint32(len(recs)) {
		t.Fatalf("footer count %d", rd.Header().Count)
	}
}

func TestEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 0)
	writeHourFile(t, path, 0, nil)
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty file Next = %v", err)
	}
}

// Record whose SrcIP bytes coincide with the header magic must not confuse
// the framing.
func TestMagicCollisionRecord(t *testing.T) {
	dir := t.TempDir()
	// "FTUP" little-endian as SrcIP.
	evil := Record{SrcIP: 0x50555446, DstIP: 0x50555446, Packets: 1}
	path := HourPath(dir, 1)
	writeHourFile(t, path, 1, []Record{evil, evil})
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	n := 0
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec != evil {
			t.Fatalf("record %d mangled: %+v", n, rec)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d records", n)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.ft.gz")); err == nil {
		t.Fatal("open missing file succeeded")
	}
}

func TestOpenGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.ft.gz")
	if err := os.WriteFile(path, []byte("this is not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("garbage open err = %v", err)
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 2)
	r := rng.New(2)
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = randomRecord(r)
	}
	// Write without footer by not closing properly: emulate via full write
	// then byte-level truncation of the gzip payload.
	writeHourFile(t, path, 2, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(path)
	if err != nil {
		// Truncation may already corrupt the gzip header; also acceptable.
		return
	}
	defer rd.Close()
	for {
		_, err := rd.Next()
		if err == io.EOF {
			t.Fatal("truncated file read to clean EOF")
		}
		if err != nil {
			return // detected
		}
	}
}

func TestDatasetHours(t *testing.T) {
	dir := t.TempDir()
	for _, h := range []int{5, 0, 12} {
		writeHourFile(t, HourPath(dir, h), uint32(h), nil)
	}
	// A foreign file should be ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	hours, err := DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 5, 12}
	if len(hours) != len(want) {
		t.Fatalf("hours %v", hours)
	}
	for i := range want {
		if hours[i] != want[i] {
			t.Fatalf("hours %v want %v", hours, want)
		}
	}
}

func TestWalkHour(t *testing.T) {
	dir := t.TempDir()
	r := rng.New(3)
	recs := make([]Record, 50)
	total := uint64(0)
	for i := range recs {
		recs[i] = randomRecord(r)
		total += uint64(recs[i].Packets)
	}
	writeHourFile(t, HourPath(dir, 4), 4, recs)

	got := uint64(0)
	n := 0
	err := WalkHourBatch(context.Background(), dir, 4, func(batch []Record) error {
		for _, rec := range batch {
			got += uint64(rec.Packets)
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) || got != total {
		t.Fatalf("walked %d records, %d packets; want %d, %d", n, got, len(recs), total)
	}
}

func TestWalkHourCallbackError(t *testing.T) {
	dir := t.TempDir()
	writeHourFile(t, HourPath(dir, 9), 9, []Record{{Packets: 1}, {Packets: 2}})
	sentinel := errors.New("stop")
	calls := 0
	err := WalkHourBatch(context.Background(), dir, 9, func([]Record) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func BenchmarkFileWrite(b *testing.B) {
	dir := b.TempDir()
	w, err := Create(HourPath(dir, 0), 0)
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{SrcIP: 1, DstIP: 2, Protocol: ProtoTCP, TCPFlags: FlagSYN, Packets: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.SrcIP = uint32(i)
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
}

func BenchmarkFileRead(b *testing.B) {
	dir := b.TempDir()
	const n = 200000
	w, _ := Create(HourPath(dir, 0), 0)
	r := rng.New(1)
	for i := 0; i < n; i++ {
		w.Write(randomRecord(r))
	}
	w.Close()
	b.ResetTimer()
	read := 0
	for read < b.N {
		rd, err := Open(HourPath(dir, 0))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			read++
			if read >= b.N {
				break
			}
		}
		rd.Close()
	}
}
