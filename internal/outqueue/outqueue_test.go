package outqueue

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func note(key string, hour int) Notification {
	return Notification{
		DedupKey:  key,
		Contact:   "abuse@" + key + ".example.net",
		Tier:      "registry",
		Subject:   "Compromised IoT devices in " + key,
		Body:      "Dear abuse team of " + key + ",\n\nplease investigate.\n",
		EventHour: hour,
		Devices:   3,
		Packets:   1234,
	}
}

func mustEnqueue(t *testing.T, q *Queue, ns ...Notification) []Disposition {
	t.Helper()
	ds, _, err := q.Enqueue(ns...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEnqueueRoundtrip(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds := mustEnqueue(t, q, note("as64512", 0), note("as64513", 5))
	if ds[0] != Enqueued || ds[1] != Enqueued {
		t.Fatalf("dispositions %v", ds)
	}
	if err := q.MarkSent(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkFailed(2, 4, "mailbox rejected"); err != nil {
		t.Fatal(err)
	}

	// Reopen and compare full state byte for byte.
	q2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.fingerprint(), q2.fingerprint()) {
		t.Fatal("reopened queue state diverges from live state")
	}
	items := q2.allItems()
	if len(items) != 2 {
		t.Fatalf("%d items after reopen", len(items))
	}
	if items[0].State != StateSent || items[0].Attempts != 2 {
		t.Fatalf("item 1: %+v", items[0])
	}
	if items[1].State != StateFailed || items[1].Detail != "mailbox rejected" {
		t.Fatalf("item 2: %+v", items[1])
	}
	if items[0].Body != note("as64512", 0).Body {
		t.Fatalf("body mangled: %q", items[0].Body)
	}
	st := q2.Stats()
	if st.Sent != 1 || st.Failed != 1 || st.Pending != 0 || st.Segments != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEnqueueValidation(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue(Notification{EventHour: 1}); err == nil {
		t.Fatal("empty dedup key accepted")
	}
	if _, _, err := q.Enqueue(Notification{DedupKey: "k", EventHour: -1}); err == nil {
		t.Fatal("negative event hour accepted")
	}
	// Failed validation must leave no state behind.
	if st := q.Stats(); st.Items != 0 || st.Segments != 0 {
		t.Fatalf("rejected enqueue left state: %+v", st)
	}
	if err := q.MarkSent(1, 1); err == nil {
		t.Fatal("MarkSent on empty queue succeeded")
	}
}

// The escalating suppression window: the first accepted report suppresses
// repeats for 24 event-hours, each further accepted report doubles the
// window.
func TestSuppressionWindowDoubling(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "as64512"

	// Hour 0: first report accepted; window becomes 24 h.
	if ds := mustEnqueue(t, q, note(key, 0)); ds[0] != Enqueued {
		t.Fatal("first report suppressed")
	}
	// Hour 23: inside the window → suppressed.
	if ds := mustEnqueue(t, q, note(key, 23)); ds[0] != Suppressed {
		t.Fatal("repeat inside 24h window not suppressed")
	}
	// Hour 24: window expired → accepted, window doubles to 48 h from now.
	if ds := mustEnqueue(t, q, note(key, 24)); ds[0] != Enqueued {
		t.Fatal("report after window close suppressed")
	}
	ks, ok := q.Key(key)
	if !ok || ks.WindowHours != 48 || ks.LastHour != 24 {
		t.Fatalf("key state %+v", ks)
	}
	// Hour 71: inside [24, 24+48) → suppressed.
	if ds := mustEnqueue(t, q, note(key, 71)); ds[0] != Suppressed {
		t.Fatal("repeat inside doubled window not suppressed")
	}
	// Hour 72: accepted again; window doubles to 96 h.
	if ds := mustEnqueue(t, q, note(key, 72)); ds[0] != Enqueued {
		t.Fatal("report at doubled-window close suppressed")
	}
	ks, _ = q.Key(key)
	if ks.WindowHours != 96 || ks.Reports != 3 || ks.Suppressed != 2 {
		t.Fatalf("key state %+v", ks)
	}
	// The window a complaint states is the one its acceptance will open;
	// the doubling stops at the cap.
	for _, tc := range []struct{ now, next int }{
		{0, InitialWindowHours}, {96, 192}, {maxWindowHours / 2, maxWindowHours},
		{maxWindowHours, maxWindowHours}, {3 * maxWindowHours / 2, 3 * maxWindowHours / 2},
	} {
		if got := (KeyState{WindowHours: tc.now}).NextWindowHours(); got != tc.next {
			t.Errorf("window %d h: next %d, want %d", tc.now, got, tc.next)
		}
	}

	// Other keys are independent.
	if ds := mustEnqueue(t, q, note("as64513", 72)); ds[0] != Enqueued {
		t.Fatal("unrelated key suppressed")
	}

	// Suppressed repeats are visible as queue items but never pending.
	st := q.Stats()
	if st.Suppressed != 2 || st.Pending != 4 {
		t.Fatalf("stats %+v", st)
	}
	for _, it := range q.allItems() {
		if it.State == StateSuppressed && it.Subject != "" {
			t.Fatal("suppressed item stored a rendered body")
		}
	}
}

// Dedup also applies within one batch, so a caller can throw the whole
// bundle set at Enqueue without pre-filtering.
func TestEnqueueDedupsWithinBatch(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds, st, err := q.Enqueue(note("k", 3), note("k", 3), note("k", 10))
	if err != nil {
		t.Fatal(err)
	}
	want := []Disposition{Enqueued, Suppressed, Suppressed}
	for i, d := range ds {
		if d != want[i] {
			t.Fatalf("disposition[%d] = %v, want %v", i, d, want[i])
		}
	}
	if st.Enqueued != 1 || st.Suppressed != 2 {
		t.Fatalf("stats %+v", st)
	}
	// One batch → exactly one segment, replayable.
	if qs := q.Stats(); qs.Segments != 1 {
		t.Fatalf("batch wrote %d segments", qs.Segments)
	}
	if _, err := Open(q.Dir()); err != nil {
		t.Fatal(err)
	}
}

// Enqueue is idempotent across restart: replaying the same notifications
// against a reopened queue suppresses all of them.
func TestEnqueueIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Notification{note("as64512", 10), note("as64513", 10)}
	mustEnqueue(t, q, batch...)

	q2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, st, err := q2.Enqueue(batch...)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enqueued != 0 || st.Suppressed != 2 {
		t.Fatalf("replayed batch not fully suppressed: %v %+v", ds, st)
	}
}

// Kill-and-restart at every mutation boundary: abandon the queue object
// (no shutdown path exists to call — that is the point) and verify each
// reopen reconstructs byte-identical state.
func TestKillRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()

	step := func(f func(q *Queue)) []byte {
		q, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		f(q)
		fp := q.fingerprint()
		// q abandoned here: simulated SIGKILL.
		q2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := q2.fingerprint(); !bytes.Equal(fp, got) {
			t.Fatalf("restart state diverged after step")
		}
		return fp
	}

	step(func(q *Queue) { mustEnqueue(t, q, note("a", 0), note("b", 0)) })
	step(func(q *Queue) { mustEnqueue(t, q, note("a", 5), note("c", 2)) }) // a suppressed
	step(func(q *Queue) {
		if err := q.MarkSent(1, 1); err != nil {
			t.Fatal(err)
		}
	})
	step(func(q *Queue) {
		if err := q.MarkFailed(2, 3, "bounced"); err != nil {
			t.Fatal(err)
		}
	})
	fp := step(func(q *Queue) {
		if err := q.MarkSent(4, 2); err != nil {
			t.Fatal(err)
		}
	})
	if len(fp) == 0 {
		t.Fatal("empty fingerprint")
	}
}

// A leftover .tmp from a writer killed before rename is not part of the
// queue: reopen discards it and the committed state is unaffected.
func TestOpenDiscardsTmpLeftovers(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0))
	fp := q.fingerprint()

	tmp := filepath.Join(dir, segName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fp, q2.fingerprint()) {
		t.Fatal("tmp leftover changed queue state")
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp leftover not removed")
	}
	// The discarded .tmp must not shadow the next committed segment.
	mustEnqueue(t, q2, note("b", 0))
	if st := q2.Stats(); st.Segments != 2 {
		t.Fatalf("segments %d after post-cleanup enqueue", st.Segments)
	}
}

// Foreign files in the queue directory are ignored, not deleted.
func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0))
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("foreign file removed")
	}
}

// A gap in the segment run means lost mutations: permanent damage.
func TestOpenRejectsSegmentGap(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0))
	mustEnqueue(t, q, note("b", 0))
	if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrBadFormat) || errors.Is(err, ErrTruncated) {
		t.Fatalf("gap error %v", err)
	}
	if isRetryable(err) {
		t.Fatal("segment gap must be permanent")
	}
}

// Large bodies and many keys survive the codec unchanged.
func TestLargePayloadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ns []Notification
	for i := 0; i < 64; i++ {
		n := note(fmt.Sprintf("as%d", 64512+i), i%30)
		n.Body = string(bytes.Repeat([]byte("evidence line\n"), 200))
		ns = append(ns, n)
	}
	mustEnqueue(t, q, ns...)
	q2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.fingerprint(), q2.fingerprint()) {
		t.Fatal("large payload state diverged")
	}
}
