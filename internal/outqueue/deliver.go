package outqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"iotscope/internal/pipeline"
	"iotscope/internal/resilience"
	"iotscope/internal/wal"
)

// Sink is the pluggable delivery backend — the stand-in for an SMTP
// submission or an abuse-desk API. Deliver must honor ctx; an error wrapped
// by Permanent is never retried, anything else is classified by the drain's
// retry policy.
type Sink interface {
	Deliver(ctx context.Context, item Item) error
}

// permanentErr marks a delivery failure that retrying cannot fix (a
// rejected recipient, a malformed report).
type permanentErr struct{ err error }

func (e permanentErr) Error() string { return e.err.Error() }
func (e permanentErr) Unwrap() error { return e.err }

// Permanent wraps err so IsPermanent(err) holds: the drain fails the item
// immediately instead of burning its retry budget.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentErr{err}
}

// IsPermanent reports whether a sink error was marked Permanent.
func IsPermanent(err error) bool {
	var p permanentErr
	return errors.As(err, &p)
}

// RetryableDelivery is the default retryable-classifier for drain policies:
// everything except Permanent-marked errors is worth another attempt.
func RetryableDelivery(err error) bool { return err != nil && !IsPermanent(err) }

// WriterSink delivers by rendering each notification to an io.Writer —
// the stdout sink of iotnotify. Not idempotent; use FileSink for durable
// delivery records.
type WriterSink struct {
	mu sync.Mutex
	W  io.Writer
}

// Deliver renders the item to the writer.
func (s *WriterSink) Deliver(ctx context.Context, item Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := io.WriteString(s.W, renderEntry(item))
	return err
}

// renderEntry frames one delivered notification. The header line carries
// the item identity, so a delivery log can be audited for duplicates and a
// FileSink can recognize redeliveries.
func renderEntry(item Item) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== report id=%d key=%s contact=%s tier=%s eventHour=%d\n",
		item.ID, item.DedupKey, item.Contact, item.Tier, item.EventHour)
	fmt.Fprintf(&b, "Subject: %s\n\n", item.Subject)
	b.WriteString(item.Body)
	if !strings.HasSuffix(item.Body, "\n") {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%s%d\n", endMarker, item.ID)
	return b.String()
}

// endMarker opens an entry's last line; the item ID and a newline close it.
const endMarker = "=== end report id="

// FileSink appends delivered notifications to a file, one fsync'd write per
// delivery (a wal.Appender). It is idempotent under redelivery: on open it
// scans the file for already-delivered item IDs and silently acknowledges
// repeats, so the queue's at-least-once drain (a crash between sink write
// and state commit redelivers one item) still yields an exactly-once
// delivery log. An entry counts as delivered only once its end marker line
// is complete; whatever follows the last complete one is a torn delivery
// and is truncated away, so its redelivery starts on a clean line.
type FileSink struct {
	mu        sync.Mutex
	log       *wal.Appender
	delivered map[uint64]bool
}

// NewFileSink opens (or creates) the delivery log at path.
func NewFileSink(path string) (*FileSink, error) { return newFileSink(nil, path) }

// newFileSink is NewFileSink over an injectable file system (crash tests).
func newFileSink(fsys wal.FS, path string) (*FileSink, error) {
	s := &FileSink{delivered: make(map[uint64]bool)}
	var err error
	if s.log, err = wal.OpenAppend(fsys, path, s.scan); err != nil {
		return nil, err
	}
	return s, nil
}

// scan records every complete entry's ID and reports where the last one
// ends.
func (s *FileSink) scan(data []byte) (int, error) {
	keep := 0
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return keep, nil
		}
		line := data[off : off+nl]
		off += nl + 1
		if num, ok := bytes.CutPrefix(line, []byte(endMarker)); ok {
			if id, err := strconv.ParseUint(string(num), 10, 64); err == nil {
				s.delivered[id] = true
				keep = off
			}
		}
	}
}

// Deliver appends the item unless its ID is already on file.
func (s *FileSink) Deliver(ctx context.Context, item Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delivered[item.ID] {
		return nil
	}
	if err := s.log.Append([]byte(renderEntry(item))); err != nil {
		return err
	}
	s.delivered[item.ID] = true
	return nil
}

// Delivered reports how many distinct items the log holds.
func (s *FileSink) Delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivered)
}

// Close closes the underlying file.
func (s *FileSink) Close() error { return s.log.Close() }

// FlakySink is the chaos sink for tests: each item fails its first
// FailFirst attempts with a retryable error, and items whose dedup key
// contains PermanentKey fail permanently. Delivered records successes in
// order.
type FlakySink struct {
	FailFirst    int
	PermanentKey string

	mu        sync.Mutex
	attempts  map[uint64]int
	Delivered []uint64
}

// Deliver implements the flaky behavior.
func (s *FlakySink) Deliver(ctx context.Context, item Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = make(map[uint64]int)
	}
	if s.PermanentKey != "" && strings.Contains(item.DedupKey, s.PermanentKey) {
		return Permanent(fmt.Errorf("flaky sink: recipient %s rejected", item.DedupKey))
	}
	s.attempts[item.ID]++
	if s.attempts[item.ID] <= s.FailFirst {
		return fmt.Errorf("flaky sink: transient failure %d for item %d", s.attempts[item.ID], item.ID)
	}
	s.Delivered = append(s.Delivered, item.ID)
	return nil
}

// DrainOptions tunes a drain pass.
type DrainOptions struct {
	// Policy bounds per-item retries; a zero policy never retries. Leave
	// Retryable nil to use RetryableDelivery.
	Policy pipeline.RetryPolicy
	// Limiter paces deliveries when set (one shared token bucket).
	Limiter *resilience.RateLimiter
}

// rateKey is the single token-bucket key a drain paces itself under.
const rateKey = "outqueue-drain"

// DrainStats summarizes one drain pass.
type DrainStats struct {
	Delivered int `json:"delivered"`
	Failed    int `json:"failed"`
	Attempts  int `json:"attempts"`
	Remaining int `json:"remaining"`
}

// Drain delivers every pending item in ID order: rate-limited by the
// options' token bucket, retried per the policy with context-aware backoff,
// and with each outcome durably committed before the next item starts — a
// crash loses at most the in-flight item, which a restarted drain picks up
// again. Cancellation (the SIGTERM graceful-drain path) stops cleanly
// between attempts and returns ctx.Err(); everything already delivered
// stays marked sent.
func (q *Queue) Drain(ctx context.Context, sink Sink, opts DrainOptions) (DrainStats, error) {
	if opts.Policy.Retryable == nil {
		opts.Policy.Retryable = RetryableDelivery
	}
	var st DrainStats
	pending := q.Pending()
	st.Remaining = len(pending)
	for _, it := range pending {
		if opts.Limiter != nil {
			if err := opts.Limiter.Wait(ctx, rateKey); err != nil {
				return st, err
			}
		}
		attempts := 0
		for {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			attempts++
			st.Attempts++
			err := sink.Deliver(ctx, it)
			if err == nil {
				if err := q.MarkSent(it.ID, attempts); err != nil {
					return st, err
				}
				st.Delivered++
				st.Remaining--
				break
			}
			if ctx.Err() != nil {
				// Cancelled mid-attempt: leave the item pending for the
				// next drain rather than misclassifying the abort.
				return st, ctx.Err()
			}
			if opts.Policy.ShouldRetry(err, attempts-1) {
				if serr := pipeline.Sleep(ctx, opts.Policy.JitteredDelay(attempts)); serr != nil {
					return st, serr
				}
				continue
			}
			if err := q.MarkFailed(it.ID, attempts, err.Error()); err != nil {
				return st, err
			}
			st.Failed++
			st.Remaining--
			break
		}
	}
	return st, nil
}
