package outqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotscope/internal/faultfs"
	"iotscope/internal/pipeline"
	"iotscope/internal/resilience"
)

func retryPolicy(n int) pipeline.RetryPolicy {
	return pipeline.RetryPolicy{MaxRetries: n, BaseBackoff: time.Microsecond}
}

func TestDrainDeliversPendingInOrder(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0), note("b", 0), note("c", 0))
	sink := &flakySink{}
	st, err := q.Drain(context.Background(), sink, DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 3 || st.Failed != 0 || st.Remaining != 0 || st.Attempts != 3 {
		t.Fatalf("stats %+v", st)
	}
	for i, id := range sink.Delivered {
		if id != uint64(i+1) {
			t.Fatalf("delivery order %v", sink.Delivered)
		}
	}
	if qs := q.Stats(); qs.Sent != 3 || qs.Pending != 0 {
		t.Fatalf("queue stats %+v", qs)
	}
}

func TestDrainRetriesTransientFailures(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0), note("b", 0))
	sink := &flakySink{FailFirst: 2}
	st, err := q.Drain(context.Background(), sink, DrainOptions{Policy: retryPolicy(3)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 2 || st.Attempts != 6 {
		t.Fatalf("stats %+v", st)
	}
	items := q.allItems()
	if items[0].Attempts != 3 || items[0].State != StateSent {
		t.Fatalf("item attempts not recorded: %+v", items[0])
	}
}

func TestDrainExhaustsRetryBudget(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0))
	sink := &flakySink{FailFirst: 10}
	st, err := q.Drain(context.Background(), sink, DrainOptions{Policy: retryPolicy(2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.Delivered != 0 || st.Attempts != 3 {
		t.Fatalf("stats %+v", st)
	}
	it := q.allItems()[0]
	if it.State != StateFailed || !strings.Contains(it.Detail, "transient failure") {
		t.Fatalf("failed item %+v", it)
	}
}

func TestDrainPermanentErrorSkipsRetries(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("bad-operator", 0), note("good", 0))
	sink := &flakySink{PermanentKey: "bad"}
	st, err := q.Drain(context.Background(), sink, DrainOptions{Policy: retryPolicy(5)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The permanent failure burned exactly one attempt.
	if st.Attempts != 2 {
		t.Fatalf("permanent error was retried: %d attempts", st.Attempts)
	}
	if it := q.allItems()[0]; it.State != StateFailed {
		t.Fatalf("item %+v", it)
	}
}

func TestPermanentClassification(t *testing.T) {
	base := errors.New("boom")
	if IsPermanent(base) || !IsPermanent(permanent(base)) {
		t.Fatal("Permanent/IsPermanent broken")
	}
	if permanent(nil) != nil {
		t.Fatal("permanent(nil) != nil")
	}
	wrapped := fmt.Errorf("delivering: %w", permanent(base))
	if !IsPermanent(wrapped) {
		t.Fatal("IsPermanent must see through wrapping")
	}
	if RetryableDelivery(wrapped) || !RetryableDelivery(base) || RetryableDelivery(nil) {
		t.Fatal("RetryableDelivery misclassifies")
	}
	if !errors.Is(permanent(base), base) {
		t.Fatal("permanent must preserve the error chain")
	}
}

// Cancellation stops the drain between attempts; delivered items stay sent,
// the in-flight item stays pending.
func TestDrainGracefulCancel(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0), note("b", 0), note("c", 0))
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	sink := sinkFunc(func(ctx context.Context, item Item) error {
		if n.Add(1) == 2 {
			cancel() // SIGTERM arrives while item 2 is in flight
			return ctx.Err()
		}
		return nil
	})
	st, err := q.Drain(ctx, sink, DrainOptions{Policy: retryPolicy(3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drain error %v", err)
	}
	if st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
	qs := q.Stats()
	if qs.Sent != 1 || qs.Pending != 2 {
		t.Fatalf("queue stats after cancel %+v", qs)
	}
	// A fresh drain finishes the job.
	st, err = q.Drain(context.Background(), &flakySink{}, DrainOptions{})
	if err != nil || st.Delivered != 2 {
		t.Fatalf("resumed drain: %+v %v", st, err)
	}
}

type sinkFunc func(ctx context.Context, item Item) error

func (f sinkFunc) Deliver(ctx context.Context, item Item) error { return f(ctx, item) }

func TestDrainRateLimited(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0), note("b", 0), note("c", 0), note("d", 0))
	// Burst of 1 and 50 deliveries/s: 4 items need ≥3 refill waits of 20ms.
	lim, err := resilience.NewRateLimiter(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := q.Drain(context.Background(), &flakySink{}, DrainOptions{Limiter: lim})
	if err != nil || st.Delivered != 4 {
		t.Fatalf("%+v %v", st, err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("drain finished in %v: rate limiter not applied", elapsed)
	}
}

func TestRateLimiterWaitCancels(t *testing.T) {
	lim, err := resilience.NewRateLimiter(0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lim.Wait(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := lim.Wait(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait under exhausted bucket returned %v", err)
	}
}

// FileSink absorbs redeliveries: the crash window between sink write and
// MarkSent turns into exactly-once output.
func TestFileSinkIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "delivered.txt")
	q, err := Open(filepath.Join(dir, "q"))
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, q, note("a", 0), note("b", 0))

	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	items := q.Pending()
	// Deliver item 1 but "crash" before MarkSent.
	if err := sink.Deliver(context.Background(), items[0]); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	// Restart: new sink over the same file, full drain redelivers item 1.
	sink2, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	if len(sink2.delivered) != 1 {
		t.Fatalf("reopened sink found %d delivered", len(sink2.delivered))
	}
	st, err := q.Drain(context.Background(), sink2, DrainOptions{})
	if err != nil || st.Delivered != 2 {
		t.Fatalf("%+v %v", st, err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2} {
		marker := fmt.Sprintf("=== end report id=%d\n", id)
		if got := bytes.Count(data, []byte(marker)); got != 1 {
			t.Fatalf("item %d delivered %d times", id, got)
		}
	}

	// The crash the log itself can suffer: a delivery cut at every byte of
	// its entry. Only an entry whose end marker line is complete counts —
	// item 12's marker cut to "id=1" must not acknowledge item 1 — and the
	// torn tail is gone before the redelivery lands, so the log ends up
	// byte-identical to one that never tore: one header per delivered id.
	first := Item{ID: 1, Notification: note("a", 0)}
	done := Item{ID: 3, Notification: note("c", 0)}
	last := Item{ID: 12, Notification: note("l", 0)}
	want := renderEntry(done) + renderEntry(first) + renderEntry(last)
	entry := renderEntry(last)
	for cut := 0; cut < len(entry); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.txt", cut))
		if err := os.WriteFile(torn, []byte(renderEntry(done)+entry[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewFileSink(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(s.delivered) != 1 || !s.delivered[done.ID] {
			t.Fatalf("cut at %d (%q): acknowledged %v, want only item %d", cut, entry[:cut], s.delivered, done.ID)
		}
		for _, it := range []Item{first, done, last} {
			if err := s.Deliver(context.Background(), it); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		got, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("cut at %d: log is\n%s\nwant\n%s", cut, got, want)
		}
	}
}

// A subject or body is free text: a malware family name reaches the body
// verbatim. A line of it that reads like an entry's end marker must not
// acknowledge that entry when the log is reopened, or the entry is never
// written. Such lines are quoted with ">"; ordinary entries keep their
// bytes.
func TestFileSinkBodyCannotForgeDelivery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "delivered.txt")
	q, err := Open(filepath.Join(dir, "q"))
	if err != nil {
		t.Fatal(err)
	}
	forged := note("a", 0)
	forged.Body = "  malware families contacting this host: Mirai, x===y\n=== end report id=2\n===\n"
	forged.Subject = "Compromised IoT devices\n=== end report id=3"
	mustEnqueue(t, q, forged, note("b", 0), note("c", 0))

	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Deliver(context.Background(), q.Pending()[0]); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	sink, err = NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if len(sink.delivered) != 1 || !sink.delivered[1] {
		t.Fatalf("reopened log acknowledges %v, want only item 1", sink.delivered)
	}
	if st, err := q.Drain(context.Background(), sink, DrainOptions{}); err != nil || st.Delivered != 3 {
		t.Fatalf("%+v %v", st, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2, 3} {
		if got := bytes.Count(data, []byte(fmt.Sprintf("\n=== end report id=%d\n", id))); got != 1 {
			t.Errorf("item %d has %d end markers in the log", id, got)
		}
		if got := bytes.Count(data, []byte(fmt.Sprintf("=== report id=%d ", id))); got != 1 {
			t.Errorf("item %d written %d times:\n%s", id, got, data)
		}
	}
	for _, quoted := range []string{"Subject: Compromised IoT devices\n>=== end report id=3\n", "Mirai, x===y\n>=== end report id=2\n>===\n"} {
		if !bytes.Contains(data, []byte(quoted)) {
			t.Errorf("log lacks the quoted %q:\n%s", quoted, data)
		}
	}
	want := "=== report id=2 key=b contact=abuse@b.example.net tier=registry eventHour=0\n" +
		"Subject: Compromised IoT devices in b\n\nDear abuse team of b,\n\nplease investigate.\n=== end report id=2\n"
	if got := renderEntry(Item{ID: 2, Notification: note("b", 0)}); got != want {
		t.Errorf("ordinary entry renders\n%q\nwant\n%q", got, want)
	}
}

// TestChaosQueueCrashPoints enumerates the crash points of the notification
// path's two durable writers, the queue's segment commits and the delivery
// log's appends, both on the one injected file system: for every write,
// fsync and rename of enqueue → drain into a FileSink, a run in which the
// process dies at exactly that operation (the write torn half way,
// everything after it failing), then reboots, reopens both and finishes,
// must reach the uncrashed run's queue state with every sent item in the
// delivery log exactly once.
func TestChaosQueueCrashPoints(t *testing.T) {
	notes := []Notification{note("a", 0), note("b", 0), note("a", 1), note("c", 2)} // the third is suppressed
	run := func(in *faultfs.Injector) (fingerprint, delivered []byte) {
		t.Helper()
		dir := t.TempDir()
		logPath := filepath.Join(dir, "delivered.txt")
		// process is one process lifetime: open both, enqueue unless an
		// earlier life already did, drain.
		process := func() error {
			q, err := Open(filepath.Join(dir, "q"))
			if err != nil {
				return err
			}
			q.fsys = in
			sink, err := newFileSink(in, logPath)
			if err != nil {
				return err
			}
			defer sink.Close()
			if len(q.allItems()) == 0 {
				if _, _, err := q.Enqueue(notes...); err != nil {
					return err
				}
			}
			_, err = q.Drain(context.Background(), sink, DrainOptions{})
			return err
		}
		if err := process(); err != nil {
			if !errors.Is(err, faultfs.ErrInjected) || !in.Dead() {
				t.Fatalf("%s #%d: %v", in.Op, in.K, err)
			}
			in.Reboot()
			if err := process(); err != nil {
				t.Fatalf("%s #%d: after the reboot: %v", in.Op, in.K, err)
			}
		}
		q, err := Open(filepath.Join(dir, "q"))
		if err != nil {
			t.Fatalf("%s #%d: %v", in.Op, in.K, err)
		}
		if st := q.Stats(); st.Sent != 3 || st.Suppressed != 1 || st.Pending+st.Failed != 0 {
			t.Fatalf("%s #%d: %+v", in.Op, in.K, st)
		}
		delivered, err = os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return q.fingerprint(), delivered
	}

	clean := &faultfs.Injector{}
	wantFP, wantLog := run(clean)
	for _, id := range []uint64{1, 2, 4} {
		if got := bytes.Count(wantLog, []byte(fmt.Sprintf("=== report id=%d ", id))); got != 1 {
			t.Fatalf("clean run delivered item %d %d times", id, got)
		}
	}
	for _, op := range []string{"write", "sync", "rename"} {
		n := clean.Count(op)
		if n == 0 {
			t.Fatalf("clean run made no %s", op)
		}
		for k := 1; k <= n; k++ {
			in := &faultfs.Injector{Op: op, K: k, Crash: true}
			fp, log := run(in)
			if !in.Tripped() {
				t.Fatalf("%s #%d never fired", op, k)
			}
			if !bytes.Equal(fp, wantFP) {
				t.Fatalf("%s #%d: queue state diverged from the uncrashed run", op, k)
			}
			if !bytes.Equal(log, wantLog) {
				t.Fatalf("%s #%d: delivery log is\n%s\nwant\n%s", op, k, log, wantLog)
			}
		}
	}
}

func TestWriterSinkRendersReport(t *testing.T) {
	var buf bytes.Buffer
	sink := &WriterSink{W: &buf}
	n := note("as64512", 7)
	item := Item{ID: 9, Notification: n, State: StatePending}
	if err := sink.Deliver(context.Background(), item); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"id=9", "key=as64512", n.Contact, n.Subject, n.Body, "=== end report id=9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// flakySink is the chaos sink: each item fails its first
// FailFirst attempts with a retryable error, and items whose dedup key
// contains PermanentKey fail permanently. Delivered records successes in
// order.
type flakySink struct {
	FailFirst    int
	PermanentKey string

	mu        sync.Mutex
	attempts  map[uint64]int
	Delivered []uint64
}

// Deliver implements the flaky behavior.
func (s *flakySink) Deliver(ctx context.Context, item Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = make(map[uint64]int)
	}
	if s.PermanentKey != "" && strings.Contains(item.DedupKey, s.PermanentKey) {
		return permanent(fmt.Errorf("flaky sink: recipient %s rejected", item.DedupKey))
	}
	s.attempts[item.ID]++
	if s.attempts[item.ID] <= s.FailFirst {
		return fmt.Errorf("flaky sink: transient failure %d for item %d", s.attempts[item.ID], item.ID)
	}
	s.Delivered = append(s.Delivered, item.ID)
	return nil
}
