package outqueue

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOutQueue throws arbitrary bytes at the segment decoder via Open: it
// must never panic, every failure must sit inside the taxonomy, and any
// accepted segment must re-encode to the same bytes and replay to the same
// state.
func FuzzOutQueue(f *testing.F) {
	// Seed the corpus with real segments of each record mix, plus damaged
	// variants so the fuzzer starts near the interesting boundaries.
	seedDir := f.TempDir()
	q, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := q.Enqueue(note("as64512", 0), note("as64513", 2)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := q.Enqueue(note("as64512", 1)); err != nil { // suppressed
		f.Fatal(err)
	}
	if err := q.MarkSent(1, 2); err != nil {
		f.Fatal(err)
	}
	if err := q.MarkFailed(2, 3, "bounced"); err != nil {
		f.Fatal(err)
	}
	for seq := uint32(1); seq <= 4; seq++ {
		data, err := os.ReadFile(filepath.Join(seedDir, segName(seq)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(data) > 10 {
			f.Add(data[:len(data)-7]) // truncated
			mangled := append([]byte(nil), data...)
			mangled[len(mangled)/2] ^= 0x40 // flipped
			f.Add(mangled)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("IOQS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			if errors.Is(err, ErrTruncated) != isRetryable(err) {
				t.Fatalf("taxonomy split inconsistent: %v", err)
			}
			return
		}
		if len(data) == 0 {
			// A zero-length trailing (here: only) segment is a tolerated
			// lost commit: the queue opens empty and reuses the sequence.
			if len(q.allItems()) != 0 || q.nextSeq != 1 {
				t.Fatalf("empty segment replayed state: %d items, nextSeq %d",
					len(q.allItems()), q.nextSeq)
			}
		} else {
			// Accepted input: decoding again must agree, and the canonical
			// re-encoding of its records must reproduce the file exactly —
			// the codec admits no non-canonical encodings.
			recs, err := decodeSegment(data, 1)
			if err != nil {
				t.Fatalf("Open accepted what decodeSegment rejects: %v", err)
			}
			if reenc := encodeSegment(1, recs); string(reenc) != string(data) {
				t.Fatalf("accepted segment is not canonical:\n in: %x\nout: %x", data, reenc)
			}
		}
		// And the replayed state must itself survive a reopen.
		q2, err := Open(dir)
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		if string(q.fingerprint()) != string(q2.fingerprint()) {
			t.Fatal("replay not deterministic")
		}
	})
}
