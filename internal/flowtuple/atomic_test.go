package flowtuple

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"
)

func TestCreateIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 5)
	w, err := Create(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Packets: 1}); err != nil {
		t.Fatal(err)
	}
	// Mid-write: only the .tmp sibling exists, and dataset scans skip it.
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("final path visible mid-write: %v", err)
	}
	if _, err := os.Stat(path + TmpSuffix); err != nil {
		t.Fatalf("tmp sibling missing mid-write: %v", err)
	}
	hours, err := DatasetHours(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 0 {
		t.Fatalf("in-progress file listed in dataset: %v", hours)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close: final path complete and verified, tmp gone.
	if _, err := os.Stat(path + TmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp sibling left after Close: %v", err)
	}
	hdr, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Hour != 5 || hdr.Count != 1 {
		t.Fatalf("header %+v", hdr)
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 2)
	w, err := Create(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Packets: 3}); err != nil {
		t.Fatal(err)
	}
	w.abort()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("final path exists after abort")
	}
	if _, err := os.Stat(path + TmpSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp sibling survives abort")
	}
	if err := w.Write(Record{Packets: 1}); err == nil {
		t.Fatal("write after abort accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close after abort reported success")
	}
}

func TestCloseIdempotentAfterSuccess(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 1)
	w, err := Create(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := Verify(path); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := HourPath(dir, 4)
	writeHourFile(t, path, 4, []Record{{Packets: 1}, {Packets: 2}})
	if hdr, err := Verify(path); err != nil || hdr.Count != 2 {
		t.Fatalf("verify clean file: %+v, %v", hdr, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("verify damaged file: %v", err)
	}
}

// hourFileBytes is the writer's output built without the writer: a fresh
// gzip.Writer over header, tagged records and footer.
func hourFileBytes(hour uint32, recs []Record) []byte {
	var raw []byte
	raw = append(raw, fileMagic[:]...)
	raw = append(raw, fileVersion, 0, 0, 0)
	raw = binary.LittleEndian.AppendUint32(raw, hour)
	raw = append(raw, 0, 0, 0, 0)
	for _, r := range recs {
		raw = AppendRecord(append(raw, tagRecord), r)
	}
	raw = binary.LittleEndian.AppendUint32(append(raw, tagFooter), uint32(len(recs)))
	var out bytes.Buffer
	gz := gzip.NewWriter(&out) // into a bytes.Buffer: no error to check
	gz.Write(raw)
	gz.Close()
	return out.Bytes()
}

// The writer's gzip and bufio layers are recycled between files. What a
// previous file left in them — a finished stream's tables, or the buffered
// and half-deflated records of an aborted one — must not reach the next:
// every file is the bytes a fresh gzip.Writer produces, from several
// goroutines at once.
func TestWriterRecyclesCleanState(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 6; i++ {
				hour := g*100 + i
				recs := make([]Record, 2000+rnd.Intn(6000))
				for j := range recs {
					recs[j] = Record{SrcIP: rnd.Uint32() >> 12, DstIP: rnd.Uint32(), DstPort: uint16(rnd.Intn(64)), Packets: 1}
				}
				w, err := Create(HourPath(dir, hour), uint32(hour))
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range recs {
					if err := w.Write(r); err != nil {
						t.Error(err)
						return
					}
				}
				if i%2 == 1 { // enough records that bufio has flushed some into gzip
					w.abort()
					continue
				}
				if err := w.Close(); err != nil {
					t.Error(err)
					return
				}
				got, err := os.ReadFile(HourPath(dir, hour))
				if err != nil {
					t.Error(err)
					return
				}
				if want := hourFileBytes(uint32(hour), recs); !bytes.Equal(got, want) {
					t.Errorf("hour %d: %d bytes, a fresh gzip.Writer gives %d", hour, len(got), len(want))
				}
			}
		}(g)
	}
	wg.Wait()
}
