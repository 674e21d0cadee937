package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/faultfs"
	"iotscope/internal/wal"
)

const (
	headerLen = 4
	maxTag    = 8
	tailTag   = 9
)

var payloads = [][]byte{[]byte("first section"), {}, bytes.Repeat([]byte{0xa5}, 300)}

// sealed is a container of three frames (tags 1-3) behind a 4-byte header.
func sealed() []byte {
	b := []byte("HDR!")
	for i, p := range payloads {
		b = wal.AppendFrame(b, uint8(i+1), p)
	}
	return wal.Seal(b, headerLen)
}

// tail is three open-tail frames and the offset each starts at.
func tail() (data []byte, starts []int) {
	for _, p := range payloads {
		starts = append(starts, len(data))
		data = wal.AppendFrame(data, tailTag, p)
	}
	return data, starts
}

func sameFrames(t *testing.T, frames []wal.Frame, firstTag uint8, step int, n int) {
	t.Helper()
	if len(frames) != n {
		t.Fatalf("%d frames, want %d", len(frames), n)
	}
	for i, f := range frames {
		if f.Tag != firstTag+uint8(i*step) || !bytes.Equal(f.Payload, payloads[i]) {
			t.Fatalf("frame %d: tag %d, %d payload bytes", i, f.Tag, len(f.Payload))
		}
	}
}

// The sealed-container half of the taxonomy, the one table behind
// resultstore's and outqueue's own: a container that ends early — at any
// byte — is ErrTruncated, which wraps ErrBadFormat; any other damage is
// ErrBadFormat alone; nothing damaged is ever accepted as what it was.
func TestUnsealTaxonomy(t *testing.T) {
	data := sealed()
	frames, rest, err := wal.Unseal(data, headerLen, maxTag)
	if err != nil || len(rest) != 0 {
		t.Fatalf("intact container: %d bytes left, %v", len(rest), err)
	}
	sameFrames(t, frames, 1, 1, len(payloads))

	// What follows the footer is the caller's: returned, not judged.
	if _, rest, err := wal.Unseal(append(sealed(), 0xde, 0xad), headerLen, maxTag); err != nil || !bytes.Equal(rest, []byte{0xde, 0xad}) {
		t.Fatalf("bytes after the footer: rest %x, %v", rest, err)
	}

	for cut := 0; cut < len(data); cut++ {
		_, _, err := wal.Unseal(data[:cut], headerLen, maxTag)
		if !errors.Is(err, wal.ErrTruncated) || !errors.Is(err, wal.ErrBadFormat) {
			t.Fatalf("prefix of %d/%d bytes: %v", cut, len(data), err)
		}
	}

	footer := len(data) - 9
	permanent := []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"bit flip in a payload", func(b []byte) []byte { b[headerLen+9+3] ^= 0x40; return b }},
		{"bit flip in a frame checksum", func(b []byte) []byte { b[headerLen+6] ^= 0x01; return b }},
		{"bit flip in the footer count", func(b []byte) []byte { b[footer+1] ^= 0x01; return b }},
		{"bit flip in the footer digest", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"tag above the caller's maximum", func(b []byte) []byte { b[headerLen] = maxTag + 1; return b }},
		{"a frame the footer does not count", func(b []byte) []byte {
			return append(wal.AppendFrame(b[:footer:footer], 4, []byte("late")), b[footer:]...)
		}},
	}
	for _, tc := range permanent {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := wal.Unseal(tc.damage(sealed()), headerLen, maxTag)
			if !errors.Is(err, wal.ErrBadFormat) || errors.Is(err, wal.ErrTruncated) {
				t.Fatalf("want permanent ErrBadFormat, got %v", err)
			}
		})
	}

	// Every single-bit flip past the header is rejected inside the taxonomy
	// or — a flipped tag, which no checksum covers — changes what is read.
	for i := headerLen; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			image := sealed()
			image[i] ^= 1 << bit
			got, _, err := wal.Unseal(image, headerLen, maxTag)
			if err != nil {
				if !errors.Is(err, wal.ErrBadFormat) {
					t.Fatalf("flip %d.%d: error outside the taxonomy: %v", i, bit, err)
				}
				continue
			}
			same := len(got) == len(frames)
			for j := 0; same && j < len(got); j++ {
				same = got[j].Tag == frames[j].Tag
			}
			if same {
				t.Fatalf("flip %d.%d accepted unchanged", i, bit)
			}
		}
	}
}

// The open-tail half: frames are only appended, so damage confined to the
// last frame is an append that never finished — dropped and reported as a
// byte count — and damage with committed bytes after it is ErrBadFormat.
func TestFramesTaxonomy(t *testing.T) {
	data, starts := tail()
	last := starts[len(starts)-1]
	frames, torn, err := wal.Frames(data, tailTag)
	if err != nil || torn != 0 {
		t.Fatalf("intact tail: torn %d, %v", torn, err)
	}
	sameFrames(t, frames, tailTag, 0, len(payloads))

	bounds := append(append([]int(nil), starts...), len(data))
	for cut := 0; cut <= len(data); cut++ {
		whole, end := 0, 0 // frames that fit in the prefix, and where they end
		for i, b := range bounds[1:] {
			if b <= cut {
				whole, end = i+1, b
			}
		}
		frames, torn, err := wal.Frames(data[:cut], tailTag)
		if err != nil || torn != cut-end {
			t.Fatalf("cut at %d: torn %d, %v; want %d", cut, torn, err, cut-end)
		}
		sameFrames(t, frames, tailTag, 0, whole)
	}

	mutate := func(at int, fn func(byte) byte) []byte {
		b := append([]byte(nil), data...)
		b[at] = fn(b[at])
		return b
	}
	flip := func(at int) []byte { return mutate(at, func(v byte) byte { return v ^ 0x10 }) }
	frames, torn, err = wal.Frames(flip(last+9+5), tailTag)
	if err != nil || torn != len(data)-last {
		t.Fatalf("bit flip in the last frame: torn %d, %v", torn, err)
	}
	sameFrames(t, frames, tailTag, 0, len(payloads)-1)

	permanent := []struct {
		name  string
		image []byte
	}{
		{"bit flip in an interior frame", flip(starts[0] + 9 + 5)},
		{"wrong tag where a frame starts", mutate(starts[1], func(byte) byte { return 1 })},
		{"junk after the last frame", append(append([]byte(nil), data...), 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0)},
	}
	for _, tc := range permanent {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := wal.Frames(tc.image, tailTag)
			if !errors.Is(err, wal.ErrBadFormat) || errors.Is(err, wal.ErrTruncated) {
				t.Fatalf("want permanent ErrBadFormat, got %v", err)
			}
		})
	}
}

// Dec refuses to read past a payload's end, stays failed, and Finish maps
// both underflow and leftover bytes onto ErrBadFormat.
func TestCursorRoundTripAndFinish(t *testing.T) {
	var e wal.Enc
	e.U8(7)
	e.U16(515)
	e.U32(1 << 20)
	e.U64(1 << 40)
	e.Uv(300)
	e.Str("key")
	e.Raw([]byte{1, 2})
	d := &wal.Dec{B: e.B}
	if d.U8() != 7 || d.U16() != 515 || d.U32() != 1<<20 || d.U64() != 1<<40 || d.Uv() != 300 ||
		d.Str() != "key" || !bytes.Equal(d.Bytes(2), []byte{1, 2}) {
		t.Fatal("cursor round trip")
	}
	if err := d.Finish("payload"); err != nil {
		t.Fatal(err)
	}
	if err := (&wal.Dec{B: e.B[:len(e.B)-1]}).Finish("payload"); !errors.Is(err, wal.ErrBadFormat) {
		t.Fatalf("leftover bytes: %v", err)
	}
	short := &wal.Dec{B: []byte{9, 0, 0}}
	if short.U32() != 0 || short.U8() != 0 || short.Err == nil {
		t.Fatal("a read past the end must fail the cursor for good")
	}
	if err := short.Finish("payload"); !errors.Is(err, wal.ErrBadFormat) || errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("underflow: %v", err)
	}
	// A count larger than the bytes left cannot size an allocation.
	var big wal.Enc
	big.Uv(1 << 40)
	if hostile := (&wal.Dec{B: big.B}); hostile.Count() != 0 || hostile.Err == nil {
		t.Fatal("hostile count accepted")
	}
}

// WriteAtomic replaces the file or leaves it alone: whichever of its write,
// fsync and rename fails, the old contents stand and no temp file is left.
func TestWriteAtomicAllOrNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	if err := wal.WriteAtomic(nil, path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"write", "sync", "rename"} {
		in := &faultfs.Injector{Op: op, K: 1}
		if err := wal.WriteAtomic(in, path, []byte("new contents")); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("%s: %v", op, err)
		}
		if got, _ := os.ReadFile(path); string(got) != "old" {
			t.Fatalf("%s failed and left %q", op, got)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s failed and left the temp file: %v", op, err)
		}
	}
	in := &faultfs.Injector{}
	if err := wal.WriteAtomic(in, path, []byte("new contents")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new contents" {
		t.Fatalf("replaced file holds %q", got)
	}
	if in.Count("write") != 1 || in.Count("sync") != 1 || in.Count("rename") != 1 {
		t.Fatal("one write, one fsync, one rename per replace")
	}
}

// lines is the scanner of a newline-terminated text log.
func lines(data []byte) (int, error) { return bytes.LastIndexByte(data, '\n') + 1, nil }

// The torn-tail rule, once: whatever an append that failed left behind is
// gone before the next append lands — in the same process (the failure was
// survived and the caller retries) or after a reopen (the failure was the
// process dying) — so the file is always exactly the appends that succeeded.
func TestAppenderDropsTornTail(t *testing.T) {
	const n = 3
	entry := func(i int) string { return fmt.Sprintf("entry %d of three\n", i) }
	for _, op := range []string{"write", "sync"} {
		for k := 1; k <= n; k++ {
			for _, crash := range []bool{false, true} {
				path := filepath.Join(t.TempDir(), "log")
				in := &faultfs.Injector{Op: op, K: k, Crash: crash}
				a, err := wal.OpenAppend(in, path, lines)
				if err != nil {
					t.Fatal(err)
				}
				want := ""
				for i := 1; i <= n; i++ {
					err := a.Append([]byte(entry(i)))
					if err != nil && crash {
						a.Close()
						in.Reboot()
						var openErr error
						if a, openErr = wal.OpenAppend(in, path, lines); openErr != nil {
							t.Fatal(openErr)
						}
						// A line that reached the file whole before its fsync
						// died is there after the reopen; a torn one is not.
						if got, _ := os.ReadFile(path); string(got) == want+entry(i) {
							want += entry(i)
							continue
						}
					}
					if err != nil {
						err = a.Append([]byte(entry(i)))
					}
					if err != nil {
						t.Fatalf("%s #%d: entry %d: %v", op, k, i, err)
					}
					want += entry(i)
				}
				a.Close()
				if !in.Tripped() {
					t.Fatalf("%s #%d never fired", op, k)
				}
				if got, _ := os.ReadFile(path); string(got) != want || want != entry(1)+entry(2)+entry(3) {
					t.Fatalf("%s #%d (crash %v): file holds %q", op, k, crash, got)
				}
			}
		}
	}
}

// A scanner that finds damage before the tail fails the open and the file
// is left as it was; a nil scanner keeps every byte.
func TestOpenAppendScanner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("whole\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := fmt.Errorf("line 1: %w", wal.ErrBadFormat)
	if _, err := wal.OpenAppend(nil, path, func([]byte) (int, error) { return 0, damaged }); !errors.Is(err, wal.ErrBadFormat) {
		t.Fatalf("scanner error: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "whole\ntorn" {
		t.Fatalf("failed open modified the file: %q", got)
	}
	a, err := wal.OpenAppend(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte("!\n")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a, err = wal.OpenAppend(nil, path, lines)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got, _ := os.ReadFile(path); string(got) != "whole\ntorn!\n" {
		t.Fatalf("file holds %q", got)
	}
}

// FuzzFrames walks arbitrary bytes as a sealed container with an open tail
// behind it. It must never panic, every rejection must sit inside the
// taxonomy, and what it accepts must be canonical: re-encoding the frames it
// returned reproduces exactly the bytes it consumed.
func FuzzFrames(f *testing.F) {
	open, _ := tail()
	f.Add(sealed())
	f.Add(sealed()[:len(sealed())-5])
	f.Add(append(sealed(), open...))
	f.Add(append(sealed(), open[:len(open)-7]...))
	f.Add([]byte("HDR!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, rest, err := wal.Unseal(data, headerLen, maxTag)
		if err != nil {
			if !errors.Is(err, wal.ErrBadFormat) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			return
		}
		again := append([]byte(nil), data[:headerLen]...)
		for _, fr := range frames {
			again = wal.AppendFrame(again, fr.Tag, fr.Payload)
		}
		if again = wal.Seal(again, headerLen); !bytes.Equal(again, data[:len(data)-len(rest)]) {
			t.Fatalf("accepted container is not canonical:\n in: %x\nout: %x", data[:len(data)-len(rest)], again)
		}
		frames, torn, err := wal.Frames(rest, tailTag)
		if err != nil {
			if !errors.Is(err, wal.ErrBadFormat) || errors.Is(err, wal.ErrTruncated) {
				t.Fatalf("open tail error outside the taxonomy: %v", err)
			}
			return
		}
		again = nil
		for _, fr := range frames {
			again = wal.AppendFrame(again, fr.Tag, fr.Payload)
		}
		if !bytes.Equal(again, rest[:len(rest)-torn]) {
			t.Fatalf("accepted tail is not canonical: %d frames, %d torn of %d", len(frames), torn, len(rest))
		}
	})
}
