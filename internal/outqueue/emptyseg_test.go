package outqueue

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenToleratesEmptyTrailingSegment models the crash window between a
// segment file's creation and its first written byte (or a non-atomic
// transport that materialized the name before the data): the mutation was
// never committed, so replay must skip the empty file, reuse its sequence
// number, and leave the queue byte-identical to one that never saw the
// phantom segment.
func TestOpenToleratesEmptyTrailingSegment(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("as64512", 0), note("as64513", 2))
	if err := q.MarkSent(1, 1); err != nil {
		t.Fatal(err)
	}
	fp := q.fingerprint()
	segs := int(q.nextSeq) - 1

	// Crash: the next segment's file exists but holds nothing.
	if err := os.WriteFile(filepath.Join(dir, segName(uint32(segs+1))), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := Open(dir)
	if err != nil {
		t.Fatalf("replay with empty trailing segment failed: %v", err)
	}
	if !bytes.Equal(fp, q2.fingerprint()) {
		t.Fatal("empty trailing segment changed replayed state")
	}
	if got := q2.Stats().Segments; got != segs {
		t.Fatalf("stats count %d segments, want %d (phantom not part of history)", got, segs)
	}

	// The reused sequence number must commit cleanly over the empty file,
	// and the queue must then replay a third time with the new mutation.
	mustEnqueue(t, q2, note("as64999", 7))
	q3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q2.fingerprint(), q3.fingerprint()) {
		t.Fatal("post-recovery enqueue not replayable")
	}
	if len(q3.allItems()) != 3 {
		t.Fatalf("%d items after recovery enqueue", len(q3.allItems()))
	}
}

// TestOpenRejectsEmptyMidRunSegment pins the other side of the contract:
// an empty segment with committed successors is a hole in history —
// permanent damage, same class as a missing file.
func TestOpenRejectsEmptyMidRunSegment(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("as64512", 0))
	mustEnqueue(t, q, note("as64513", 1))
	if err := os.Truncate(filepath.Join(dir, segName(1)), 0); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil {
		t.Fatal("empty mid-run segment accepted")
	}
	if !errors.Is(err, ErrBadFormat) || errors.Is(err, ErrTruncated) {
		t.Fatalf("want permanent ErrBadFormat (not truncated), got %v", err)
	}
}
