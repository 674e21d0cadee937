package flowtuple

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/rng"
)

// FuzzReader proves Open/Next/Close never panic on arbitrary bytes: every
// input either reads to clean EOF or fails with an ordinary error. The
// seed corpus is a valid file plus systematic mutations of it.
func FuzzReader(f *testing.F) {
	// Valid file bytes as the mutation base.
	dir := f.TempDir()
	base := HourPath(dir, 7)
	w, err := Create(base, 7)
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(7)
	for i := 0; i < 32; i++ {
		if err := w.Write(Record{
			SrcIP: uint32(r.Uint64() >> 32), DstIP: uint32(r.Uint64() >> 32),
			SrcPort: uint16(uint32(r.Uint64() >> 32)), DstPort: uint16(uint32(r.Uint64() >> 32)),
			Protocol: uint8(r.Intn(256)), TCPFlags: uint8(r.Intn(64)),
			Packets: uint32(1 + r.Intn(1000)),
		}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(base)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not gzip at all"))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	for _, off := range []int{0, 1, 3, 10, len(valid) / 2, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "hour-000.ft.gz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		rd, err := Open(path)
		if err != nil {
			return // rejected at open: fine
		}
		defer rd.Close()
		// Bound iterations so crafted gzip bombs cannot stall the fuzzer:
		// a tiny compressed input can expand to millions of frames.
		for i := 0; i < 1<<17; i++ {
			if _, err := rd.Next(); err != nil {
				if err == io.EOF {
					return // clean end
				}
				return // ordinary error: fine
			}
		}
	})
}

// FuzzNextBatch proves the batch fast path is a drop-in for Next on
// arbitrary bytes: both drains see the same record prefix and stop with
// errors of the same classification, and neither panics.
func FuzzNextBatch(f *testing.F) {
	dir := f.TempDir()
	base := HourPath(dir, 7)
	w, err := Create(base, 7)
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < 48; i++ {
		if err := w.Write(randomRecord(r)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(base)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid, uint16(1))
	f.Add(valid, uint16(7))
	f.Add(valid, uint16(BatchSize))
	f.Add(valid[:len(valid)/2], uint16(3))
	f.Add([]byte{}, uint16(4))
	for _, off := range []int{1, 10, len(valid) / 2, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		f.Add(mut, uint16(5))
	}

	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		batchLen := int(size)%256 + 1
		path := filepath.Join(t.TempDir(), "hour-000.ft.gz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		ra, errA := Open(path)
		rb, errB := Open(path)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("open disagreement: %v vs %v", errA, errB)
		}
		if errA != nil {
			return
		}
		defer ra.Close()
		defer rb.Close()
		buf := make([]Record, batchLen)
		const maxRecs = 1 << 17 // gzip-bomb bound, as in FuzzReader
		read := 0
		for read < maxRecs {
			n, berr := rb.NextBatch(buf)
			for i := 0; i < n; i++ {
				rec, nerr := ra.Next()
				if nerr != nil {
					t.Fatalf("Next failed (%v) where NextBatch produced record %d", nerr, read+i)
				}
				if rec != buf[i] {
					t.Fatalf("record %d diverged: %+v vs %+v", read+i, rec, buf[i])
				}
			}
			read += n
			if berr != nil {
				_, nerr := ra.Next()
				if nerr == nil {
					t.Fatalf("NextBatch stopped (%v) where Next kept reading", berr)
				}
				if (berr == io.EOF) != (nerr == io.EOF) {
					t.Fatalf("terminal errors diverged: batch %v, record %v", berr, nerr)
				}
				if berr != io.EOF && berr.Error() != nerr.Error() {
					t.Fatalf("terminal messages diverged:\n batch  %v\n record %v", berr, nerr)
				}
				return
			}
		}
	})
}
