package outqueue

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/faultfs"
)

// seedQueueDir builds a queue with a few segments (enqueue, suppress, and
// state records) and returns its directory plus the path of the last
// segment — the one each corruption case damages.
func seedQueueDir(t *testing.T) (dir, lastSeg string) {
	t.Helper()
	dir = t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("as64512", 0), note("as64513", 1))
	mustEnqueue(t, q, note("as64512", 3)) // suppressed
	if err := q.MarkSent(1, 1); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, segName(3))
}

// The corruption table: every faultfs damage shape maps onto the
// retryable/permanent taxonomy. Truncation anywhere is retryable (a
// non-atomic transport may still be writing); structural damage — mangled
// magic, bad version, reserved bits, flipped payload bytes, trailing junk,
// a missing segment in the run — is permanent.
func TestCorruptionTable(t *testing.T) {
	cases := []struct {
		name      string
		damage    func(t *testing.T, dir, seg string)
		retryable bool
	}{
		{"truncate-footer", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.TruncateTail(seg, 4))
		}, true},
		{"truncate-into-record", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.TruncateTail(seg, 20))
		}, true},
		{"truncate-into-header", func(t *testing.T, _, seg string) {
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			mustFault(t, faultfs.TruncateTail(seg, info.Size()-6))
		}, true},
		// An empty segment mid-run is a hole under committed successors —
		// permanent, unlike the tolerated empty *trailing* segment (a lost
		// commit; see emptyseg_test.go).
		{"truncate-to-empty-mid-run", func(t *testing.T, dir, _ string) {
			mustFault(t, os.Truncate(filepath.Join(dir, segName(2)), 0))
		}, false},
		{"bitflip-payload", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.BitFlip(seg, int64(headerLen+12), 0x10))
		}, false},
		{"bitflip-footer-digest", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.BitFlip(seg, -1, 0x01))
		}, false},
		{"mangled-magic", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.Overwrite(seg, 0, []byte("JUNK")))
		}, false},
		{"bad-version", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.Overwrite(seg, 4, []byte{99}))
		}, false},
		{"zero-version", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.Overwrite(seg, 4, []byte{0}))
		}, false},
		{"reserved-bits-set", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.Overwrite(seg, 5, []byte{1}))
		}, false},
		{"seq-mismatch", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.Overwrite(seg, 8, []byte{0x7f}))
		}, false},
		{"trailing-junk", func(t *testing.T, _, seg string) {
			mustFault(t, faultfs.AppendTail(seg, []byte{0xde, 0xad}))
		}, false},
		{"segment-gap", func(t *testing.T, dir, _ string) {
			mustFault(t, os.Remove(filepath.Join(dir, segName(2))))
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, seg := seedQueueDir(t)
			tc.damage(t, dir, seg)
			_, err := Open(dir)
			if err == nil {
				t.Fatal("damaged queue opened cleanly")
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			if got := isRetryable(err); got != tc.retryable {
				t.Fatalf("isRetryable = %v, want %v (err: %v)", got, tc.retryable, err)
			}
			if truncated := errors.Is(err, ErrTruncated); truncated != tc.retryable {
				t.Fatalf("ErrTruncated = %v, want %v (err: %v)", truncated, tc.retryable, err)
			}
		})
	}
}

func mustFault(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Records that pass CRC but violate replay invariants are structural
// damage: out-of-order IDs, state transitions from terminal states,
// suppress records with no prior report.
func TestReplayInvariantViolations(t *testing.T) {
	build := func(t *testing.T, recs ...record) error {
		dir := t.TempDir()
		data := encodeSegment(1, recs)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		return err
	}
	item := func(id uint64, key string) Item {
		return Item{ID: id, Notification: Notification{DedupKey: key, EventHour: 1}}
	}

	cases := []struct {
		name string
		recs []record
	}{
		{"id-out-of-order", []record{{kind: recEnqueue, item: item(2, "k")}}},
		{"duplicate-id", []record{
			{kind: recEnqueue, item: item(1, "k")},
			{kind: recEnqueue, item: item(1, "k2")},
		}},
		{"empty-dedup-key", []record{{kind: recEnqueue, item: item(1, "")}}},
		{"suppress-without-report", []record{{kind: recSuppress, item: item(1, "k")}}},
		{"state-for-unknown-item", []record{{kind: recState, item: Item{ID: 5, State: StateSent}}}},
		{"state-to-pending", []record{
			{kind: recEnqueue, item: item(1, "k")},
			{kind: recState, item: Item{ID: 1, State: StatePending}},
		}},
		{"double-transition", []record{
			{kind: recEnqueue, item: item(1, "k")},
			{kind: recState, item: Item{ID: 1, State: StateSent}},
			{kind: recState, item: Item{ID: 1, State: StateFailed}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := build(t, tc.recs...)
			if !errors.Is(err, ErrBadFormat) || errors.Is(err, ErrTruncated) {
				t.Fatalf("want permanent ErrBadFormat, got %v", err)
			}
		})
	}
}
