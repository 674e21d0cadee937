package resultstore

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
)

// The corruption table: every injected fault must land in the same
// retryable-vs-permanent taxonomy flowtuple.Verify uses — a file that ends
// early (possibly still being written) or does not exist yet is retryable,
// structural damage is permanent — and ReadResult and Verify must classify
// identically.
func TestCorruptionTaxonomy(t *testing.T) {
	dir, g := makeDataset(t, 71, 4)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 2})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name          string
		corrupt       func(path string, size int64) error
		wantRetryable bool
		wantNotExist  bool
	}{
		{
			// The producer's write was cut mid-stream: the last section (or
			// the footer) is missing its tail. Retryable — a non-atomic
			// producer may still be appending.
			name:          "truncated tail",
			corrupt:       func(p string, size int64) error { return faultfs.TruncateTail(p, 30) },
			wantRetryable: true,
		},
		{
			name:          "truncated to header",
			corrupt:       func(p string, size int64) error { return faultfs.TruncateTail(p, size-headerLen) },
			wantRetryable: true,
		},
		{
			name:          "truncated mid-header",
			corrupt:       func(p string, size int64) error { return faultfs.TruncateTail(p, size-6) },
			wantRetryable: true,
		},
		{
			// A bit flip inside a section payload: the frame arrived whole
			// but its CRC disagrees. Permanent.
			name:          "bit flip in payload",
			corrupt:       func(p string, size int64) error { return faultfs.BitFlip(p, headerLen+9+3, 0x40) },
			wantRetryable: false,
		},
		{
			// A bit flip in the footer digest. Permanent.
			name:          "bit flip in footer digest",
			corrupt:       func(p string, size int64) error { return faultfs.BitFlip(p, -2, 0x01) },
			wantRetryable: false,
		},
		{
			name:          "mangled magic",
			corrupt:       func(p string, size int64) error { return faultfs.Overwrite(p, 0, []byte("JUNK")) },
			wantRetryable: false,
		},
		{
			// A future codec version: well-formed but unreadable by this
			// build. Permanent — waiting will not teach us the format.
			name:          "version from the future",
			corrupt:       func(p string, size int64) error { return faultfs.Overwrite(p, 4, []byte{0x7f}) },
			wantRetryable: false,
		},
		{
			name:          "mangled kind",
			corrupt:       func(p string, size int64) error { return faultfs.Overwrite(p, 5, []byte{0x09}) },
			wantRetryable: false,
		},
		{
			name:          "reserved header bits set",
			corrupt:       func(p string, size int64) error { return faultfs.Overwrite(p, 6, []byte{0x01}) },
			wantRetryable: false,
		},
		{
			name:          "trailing junk after footer",
			corrupt:       func(p string, size int64) error { return faultfs.AppendTail(p, []byte{0xde, 0xad}) },
			wantRetryable: false,
		},
		{
			name:          "missing file",
			corrupt:       func(p string, size int64) error { return os.Remove(p) },
			wantRetryable: true,
			wantNotExist:  true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "result.irs")
			if err := WriteResult(path, res); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(path, info.Size()); err != nil {
				t.Fatal(err)
			}
			_, readErr := ReadResult(path)
			_, verifyErr := Verify(path)
			for _, err := range []error{readErr, verifyErr} {
				if err == nil {
					t.Fatal("corrupt store accepted")
				}
				if got := IsRetryable(err); got != tc.wantRetryable {
					t.Fatalf("IsRetryable = %v, want %v (err: %v)", got, tc.wantRetryable, err)
				}
				if tc.wantNotExist {
					if !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("want fs.ErrNotExist, got %v", err)
					}
					continue
				}
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("error does not wrap ErrBadFormat: %v", err)
				}
				if got := errors.Is(err, ErrTruncated); got != tc.wantRetryable {
					t.Fatalf("ErrTruncated = %v, want %v (err: %v)", got, tc.wantRetryable, err)
				}
			}
		})
	}
}

// Every single-byte truncation point of a valid store must be rejected as
// retryable truncation or permanent damage — never accepted, never an
// unclassified error, never a panic.
func TestTruncationSweep(t *testing.T) {
	dir, g := makeDataset(t, 72, 2)
	c := correlate.New(g.Inventory(), correlate.Options{Workers: 1})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.irs")
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep a byte-granular sample of prefixes (every 97th keeps the test
	// fast while still crossing every kind of boundary in a small file).
	for n := 0; n < len(data); n += 97 {
		_, _, _, err := decode(data[:n], KindResult)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("prefix %d: unclassified error %v", n, err)
		}
	}
}

// framedCheckpoint commits the fixture's first n hours through a
// CheckpointLog and returns the file's bytes with the offset each frame
// starts at (the first is the base's size); n-1 frames follow the base.
func framedCheckpoint(t *testing.T, fx *logFixture, n int) ([]byte, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "checkpoint.irs")
	live := fx.fresh(t)
	log := NewCheckpointLog(path, nil)
	defer log.Close()
	var starts []int
	for h := 0; h < n; h++ {
		fx.ingest(t, live, h)
		done, err := log.Commit(live)
		if err != nil {
			t.Fatal(err)
		}
		if done.Compacted != (h == 0) {
			t.Fatalf("hour %d: commit %+v; the fixture wants one base and %d frames", h, done, n-1)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if h > 0 {
			starts = append(starts, int(fi.Size()-done.Bytes))
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, starts
}

// The frame half of the corruption table. Frames are only appended, so
// damage confined to the last frame is an append that never finished and
// costs exactly that frame — the file restores to the previous window —
// while damage with committed bytes after it, or a frame whose checksum
// holds but whose content the base cannot take, is permanent.
func TestFrameCorruptionTaxonomy(t *testing.T) {
	const n = 4
	fx := newLogFixture(t, 73, 6)
	data, starts := framedCheckpoint(t, fx, n)
	tail, interior := starts[len(starts)-1], starts[0]

	restoreHours := func(t *testing.T, image []byte) (int, Info, error) {
		t.Helper()
		_, cp, info, err := decode(image, KindCheckpoint)
		if err != nil {
			return 0, info, err
		}
		inc, err := fx.c.RestoreIncremental(cp)
		if err != nil {
			return 0, info, err
		}
		return inc.HoursIngested(), info, nil
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), data...))
	}
	frame := func(d *correlate.CheckpointDelta) []byte { return encodeFrame(d) }
	hourFrame := func(hour int, dev int32) []byte {
		hd := &correlate.HourDelta{Devices: []correlate.DeviceDelta{{ID: dev, Records: 1}}}
		hd.Stats.Hour = hour
		return frame(&correlate.CheckpointDelta{Hour: hd})
	}

	if got, info, err := restoreHours(t, data); err != nil || got != n || info.Frames != n-1 || info.TornBytes != 0 {
		t.Fatalf("intact file: %d hours, %+v, %v", got, info, err)
	}

	t.Run("every truncation inside the tail frame", func(t *testing.T) {
		for cut := tail + 1; cut < len(data); cut++ {
			_, cp, info, err := decode(data[:cut], KindCheckpoint)
			if err != nil || len(cp.Deltas) != n-2 || info.Frames != n-2 || info.TornBytes != int64(cut-tail) {
				t.Fatalf("cut at %d of %d: %+v, %v", cut, len(data), info, err)
			}
			if cut%89 != 0 { // the decode is per byte; a sample also restores
				continue
			}
			if got, _, err := restoreHours(t, data[:cut]); err != nil || got != n-1 {
				t.Fatalf("cut at %d of %d restores to %d hours, %v", cut, len(data), got, err)
			}
		}
		// Cut exactly at the frame boundary: nothing torn, one frame fewer.
		if got, info, err := restoreHours(t, data[:tail]); err != nil || got != n-1 || info.TornBytes != 0 {
			t.Fatalf("cut at the boundary: %d hours, %+v, %v", got, info, err)
		}
	})
	t.Run("bit flip in the tail frame", func(t *testing.T) {
		image := mutate(func(b []byte) []byte { b[tail+frameHeaderLen+5] ^= 0x10; return b })
		if got, info, err := restoreHours(t, image); err != nil || got != n-1 || info.TornBytes == 0 {
			t.Fatalf("%d hours, %+v, %v", got, info, err)
		}
	})

	permanent := []struct {
		name  string
		image []byte
	}{
		{"bit flip in an interior frame", mutate(func(b []byte) []byte { b[interior+frameHeaderLen+5] ^= 0x10; return b })},
		{"wrong tag where a frame starts", mutate(func(b []byte) []byte { b[interior] = secMeta; return b })},
		{"junk after the last frame's checksum holds", append(append([]byte(nil), data...), 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0)},
		{"frame names an hour outside the window", append(append([]byte(nil), data...), hourFrame(6, 0)...)},
		{"frame names a device outside the inventory", append(append([]byte(nil), data...), hourFrame(5, 1<<30)...)},
		{"frame repeats a settled hour", append(append([]byte(nil), data...), hourFrame(1, 0)...)},
		{"frame with unknown flag bits", append(append([]byte(nil), data...), func() []byte {
			f := frame(&correlate.CheckpointDelta{})
			f[frameHeaderLen] = 2
			binary.LittleEndian.PutUint32(f[5:], crc32.ChecksumIEEE(f[frameHeaderLen:]))
			return f
		}()...)},
	}
	for _, tc := range permanent {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := restoreHours(t, tc.image)
			if err == nil {
				t.Fatal("damaged checkpoint accepted")
			}
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, correlate.ErrBadFormat) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			if IsRetryable(err) {
				t.Fatalf("permanent damage classified retryable: %v", err)
			}
		})
	}
}

// The truncation sweep over a framed checkpoint: every prefix that cuts the
// base is rejected like any store; every prefix past the base is a valid
// checkpoint holding exactly the frames that fit whole.
func TestTruncationSweepFrames(t *testing.T) {
	fx := newLogFixture(t, 74, 5)
	data, starts := framedCheckpoint(t, fx, 4)
	base := starts[0]
	for cut := 0; cut < base; cut += 97 {
		if _, _, _, err := decode(data[:cut], KindCheckpoint); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("prefix of %d/%d base bytes: %v", cut, base, err)
		}
	}
	bounds := append(append([]int(nil), starts...), len(data))
	for cut := base; cut <= len(data); cut++ {
		whole := 0
		for _, end := range bounds[1:] {
			if end <= cut {
				whole++
			}
		}
		_, cp, info, err := decode(data[:cut], KindCheckpoint)
		if err != nil || len(cp.Deltas) != whole || info.Frames != whole {
			t.Fatalf("prefix %d: %d deltas, %+v, %v; want %d frames", cut, len(cp.Deltas), info, err, whole)
		}
	}
}
