package outqueue

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/queue-v1 was written by the commit before internal/wal existed:
// Enqueue(note("as64512", 0), note("as64513", 1)), Enqueue(note("as64512",
// 3)) — suppressed — and MarkSent(1, 1), one segment each, plus the queue's
// Fingerprint in hex. The segment format is pinned by it: the directory
// replays to that state, every segment re-encodes to its committed bytes,
// and a queue written then carries on now.
func TestQueueV1FixtureReplaysAndReencodes(t *testing.T) {
	src := filepath.Join("testdata", "queue-v1")
	dir := t.TempDir()
	for seq := uint32(1); seq <= 3; seq++ {
		data, err := os.ReadFile(filepath.Join(src, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := decodeSegment(data, seq)
		if err != nil {
			t.Fatalf("%s: %v", segName(seq), err)
		}
		if wantKind := []uint8{recEnqueue, recSuppress, recState}[seq-1]; recs[len(recs)-1].kind != wantKind {
			t.Fatalf("%s holds kind %d, want %d", segName(seq), recs[len(recs)-1].kind, wantKind)
		}
		if !bytes.Equal(encodeSegment(seq, recs), data) {
			t.Fatalf("%s does not re-encode to its committed bytes", segName(seq))
		}
		if err := os.WriteFile(filepath.Join(dir, segName(seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(src, "fingerprint.hex"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(q.Fingerprint()); got != strings.TrimSpace(string(want)) {
		t.Fatalf("fixture replays to fingerprint\n%s\nwant\n%s", got, want)
	}
	if err := q.MarkSent(2, 1); err != nil {
		t.Fatal(err)
	}
	q2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := q2.Stats(); st.Segments != 4 || st.Sent != 2 || st.Suppressed != 1 {
		t.Fatalf("continued queue: %+v", st)
	}
}
