package resultstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/wal"
)

// Info.Digest is handed to the serving layer in place of DigestResult, which
// is sound only while decode and ResultExport.Result accept exactly one image
// per state: the one encode writes. The tests here hold that rule.

// reframe walks a possibly damaged image the way Unseal would, recomputes
// every section's checksum over the payload bytes it finds (the last one
// clamped to the bytes left) and seals the container again. What a mutation
// did to a header, a tag, a length or a payload survives; the CRCs that would
// have turned all of it into "checksum mismatch" do not.
func reframe(data []byte) []byte {
	if len(data) < headerLen {
		return data
	}
	var frames []wal.Frame
	for off := headerLen; len(data)-off >= frameHeaderLen && data[off] != 0; {
		tag := data[off]
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		off += frameHeaderLen
		n = min(n, len(data)-off)
		frames = append(frames, wal.Frame{Tag: tag, Payload: data[off : off+n]})
		off += n
	}
	return sealed(data, frames)
}

// sealed is image's header followed by frames, checksummed and sealed.
func sealed(image []byte, frames []wal.Frame) []byte {
	out := append([]byte(nil), image[:headerLen]...)
	for _, f := range frames {
		out = wal.AppendFrame(out, f.Tag, f.Payload)
	}
	return wal.Seal(out, headerLen)
}

// resection rebuilds a valid image with its sections replaced by pick's
// choice of them, checksums and footer recomputed.
func resection(t *testing.T, image []byte, maxTag uint8, pick func([]wal.Frame) []wal.Frame) []byte {
	t.Helper()
	frames, _, err := wal.Unseal(image, headerLen, maxTag)
	if err != nil {
		t.Fatal(err)
	}
	return sealed(image, pick(frames))
}

// The sections of a store come in tag order, each once. A file with two of
// them exchanged held the same state under different bytes — and a different
// CRC-32 — until decode refused it.
func TestSectionOrderRejected(t *testing.T) {
	re := seedExport()
	for _, tc := range []struct {
		kind   Kind
		maxTag uint8
		image  []byte
	}{
		{KindResult, secFaults, encode(KindResult, re, nil)},
		{KindCheckpoint, secCheckpoint, encode(KindCheckpoint, re, seedCheckpoint(re))},
	} {
		same := resection(t, tc.image, tc.maxTag, func(f []wal.Frame) []wal.Frame { return f })
		if !bytes.Equal(same, tc.image) {
			t.Fatalf("%s: rebuilding an image section by section changed it", tc.kind)
		}
		if _, _, info, err := decode(tc.image, tc.kind); err != nil || info.Sections != int(tc.maxTag) {
			t.Fatalf("%s: canonical image: %+v, %v", tc.kind, info, err)
		}
		last := int(tc.maxTag) - 1
		for name, pick := range map[string]func([]wal.Frame) []wal.Frame{
			"first two swapped": func(f []wal.Frame) []wal.Frame { f[0], f[1] = f[1], f[0]; return f },
			"last two swapped":  func(f []wal.Frame) []wal.Frame { f[last-1], f[last] = f[last], f[last-1]; return f },
			"one repeated":      func(f []wal.Frame) []wal.Frame { return append(f, f[2]) },
			"one repeated in place of its neighbour": func(f []wal.Frame) []wal.Frame {
				f[3] = f[2]
				return f
			},
			"one missing":      func(f []wal.Frame) []wal.Frame { return append(f[:2], f[3:]...) },
			"the last missing": func(f []wal.Frame) []wal.Frame { return f[:last] },
		} {
			image := resection(t, tc.image, tc.maxTag, pick)
			_, _, _, err := decode(image, tc.kind)
			if !errors.Is(err, ErrBadFormat) || IsRetryable(err) {
				t.Errorf("%s, %s: decode = %v, want permanent ErrBadFormat", tc.kind, name, err)
			}
		}
	}
}

// The digest a loader returns is the one DigestResult would compute, for a
// result written by WriteResult and for the parent-written fixture; Verify
// reports the same; a checkpoint's covers its base and not the frames
// appended since.
func TestInfoDigest(t *testing.T) {
	dir, g := makeDataset(t, 67, 4)
	c := correlate.New(g.Inventory(), correlate.Options{FaultPolicy: correlate.Lenient})
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 2), 1, 0x10); err != nil {
		t.Fatal(err)
	}
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DigestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.irs")
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	loaded, info, err := LoadResult(path)
	if err != nil || info.Digest != want || len(loaded.Ingest.Faults) != 1 {
		t.Fatalf("LoadResult: digest %08x, %d faults, %v; DigestResult says %08x", info.Digest, len(loaded.Ingest.Faults), err, want)
	}
	if again, err := DigestResult(loaded); err != nil || again != want {
		t.Fatalf("the loaded result digests to %08x, %v; want %08x", again, err, want)
	}
	if info, err := Verify(path); err != nil || info.Digest != want {
		t.Fatalf("Verify: digest %08x, %v; want %08x", info.Digest, err, want)
	}

	fixture := filepath.Join("testdata", "result-v1.irs")
	loaded, info, err = LoadResult(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if dg, err := DigestResult(loaded); err != nil || dg != info.Digest {
		t.Fatalf("fixture: carried %08x, computed %08x, %v", info.Digest, dg, err)
	}

	re := seedExport()
	re.IngestOK = 1
	cp := seedCheckpoint(re)
	cp.IngestedHours = []int32{0}
	base := encode(KindCheckpoint, re, cp)
	_, _, info, err = decode(withFrames(base, seedDeltas()), KindCheckpoint)
	if err != nil || info.Frames != 2 || info.Digest != crc32.ChecksumIEEE(base) {
		t.Fatalf("framed checkpoint: %+v, %v; its base hashes to %08x", info, err, crc32.ChecksumIEEE(base))
	}
}

// A store's largest device ID does not size what loading it allocates. One
// row with ID 2²⁸ used to cost a 256 MiB membership table (2 GiB near 2³¹);
// the table is now built only while IDs are dense, and a sparse store's port
// lists are checked by binary search — which must still reject an ID that no
// row has.
func TestSparseDeviceIDsBoundedMemory(t *testing.T) {
	const id = 1 << 28
	re := seedExport()
	re.Devices = []correlate.DeviceExport{{ID: id, Records: 1, DayMask: 1}}
	re.UDPPorts = []correlate.PortExport{{Port: 53, Packets: 1, Devices: []int32{id}}}
	re.TCPScanPorts = []correlate.TCPPortExport{{Port: 23, Packets: 2, DevicesCPS: []int32{id}}}
	image := encode(KindResult, re, nil)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, _, _, err := decode(image, KindResult)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Result()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("loading one device with ID %d allocated %d MiB", id, grew>>20)
	}
	if res.Devices[id] == nil || res.UDPPorts[53].Devices[0] != id || res.TCPScanPorts[23].DevicesCPS[0] != id {
		t.Fatalf("sparse store loaded wrong: %+v", res)
	}

	re.UDPPorts[0].Devices = []int32{id - 1}
	if _, err := re.Result(); !errors.Is(err, correlate.ErrBadFormat) {
		t.Fatalf("a port listing an unknown sparse ID: %v, want ErrBadFormat", err)
	}
}

// FuzzResultCanonical is FuzzResultStore with the checksums repaired: each
// input is re-framed and re-sealed before it is decoded, so a mutation
// reaches the section parsers and Result's validation instead of dying on a
// CRC. Whenever a result image gets through both, it must be the image
// encode writes for the state it decoded to — byte for byte, from the parsed
// export and from the live Result's own Export — which is what makes
// Info.Digest the state's DigestResult.
func FuzzResultCanonical(f *testing.F) {
	valid := encode(KindResult, seedExport(), nil)
	f.Add(valid)
	fixture, err := os.ReadFile(filepath.Join("testdata", "result-v1.irs"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	empty := seedExport()
	empty.Devices, empty.UDPPorts, empty.TCPScanPorts, empty.TCPPortHour, empty.Faults = nil, nil, nil, nil, nil
	f.Add(encode(KindResult, empty, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		image := reframe(data)
		re, _, info, err := decode(image, KindResult)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			return
		}
		res, err := re.Result()
		if err != nil {
			return
		}
		if !bytes.Equal(encode(KindResult, re, nil), image) {
			t.Fatal("an accepted image is not the one its decoded export encodes to")
		}
		if dg, err := DigestResult(res); err != nil || dg != info.Digest {
			t.Fatalf("Info.Digest %08x, DigestResult %08x, %v", info.Digest, dg, err)
		}
	})
}
