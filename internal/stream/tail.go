package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"iotscope/internal/flowtuple"
	"iotscope/internal/pipeline"
)

// evKind classifies tailer events on the (bounded) channel to the window
// stage.
type evKind uint8

const (
	// evRecords carries freshly decoded records for one hour.
	evRecords evKind = iota
	// evComplete marks an hour whose footer has been read — the file is
	// finished and every record was delivered.
	evComplete
	// evCorrupt marks an hour with permanent structural damage (or one
	// whose readable prefix shrank beneath records already delivered).
	evCorrupt
	// evLateGrowth reports bytes appended to a file after its footer was
	// observed — junk or a non-atomic late append; never ingestible.
	evLateGrowth
	// evSweep marks the end of one full directory pass, noting whether it
	// made any progress. Drain mode ends on a no-progress sweep.
	evSweep
)

type event struct {
	kind       evKind
	hour       int
	recs       []flowtuple.Record
	err        error
	bytes      int64
	progressed bool
}

// tailer follows the dataset directory, decoding each hour file's newly
// appeared records and streaming them to the window stage without waiting
// for hour boundaries. gzip cannot be resumed mid-stream, so every poll of
// a grown file re-opens it and skips the records already delivered (the
// cursor) — the cost of tailing a compressed format; only files whose size
// changed are re-read. Every send blocks, so the cursor advances only past
// records the window stage has taken.
type tailer struct {
	dir   string
	batch []flowtuple.Record // decode buffer, reused by every poll
	poll  time.Duration
	out   chan<- event

	skip         map[int]bool   // settled before this run; never read
	cursor       map[int]uint64 // records already delivered per hour
	lastSize     map[int]int64  // size at last read, to skip unchanged files
	finished     map[int]bool   // footer read or hour ruled corrupt
	finishedSize map[int]int64  // size when finished, to spot late growth
}

func newTailer(dir string, batchLen int, poll time.Duration, skip map[int]bool, out chan<- event) *tailer {
	return &tailer{
		dir:          dir,
		batch:        make([]flowtuple.Record, batchLen),
		poll:         poll,
		out:          out,
		skip:         skip,
		cursor:       make(map[int]uint64),
		lastSize:     make(map[int]int64),
		finished:     make(map[int]bool),
		finishedSize: make(map[int]int64),
	}
}

// run sweeps until ctx is done or the directory listing fails (a fatal
// error the supervisor handles). Each sweep ends with an evSweep event.
func (t *tailer) run(ctx context.Context) error {
	for {
		progressed, err := t.sweep(ctx)
		if err != nil {
			return err
		}
		if !t.send(ctx, event{kind: evSweep, progressed: progressed}) {
			return ctx.Err()
		}
		if err := pipeline.Sleep(ctx, t.poll); err != nil {
			return err
		}
	}
}

func (t *tailer) sweep(ctx context.Context) (bool, error) {
	hours, err := flowtuple.DatasetHours(t.dir)
	if err != nil {
		return false, err
	}
	progressed := false
	for _, h := range hours {
		if err := ctx.Err(); err != nil {
			return progressed, err
		}
		if t.skip[h] {
			continue
		}
		p, err := t.pollHour(ctx, h)
		progressed = progressed || p
		if err != nil {
			return progressed, err
		}
	}
	return progressed, nil
}

func (t *tailer) pollHour(ctx context.Context, h int) (bool, error) {
	path := flowtuple.HourPath(t.dir, h)
	info, err := os.Stat(path)
	if err != nil {
		return false, nil // raced away; the next sweep re-lists
	}
	size := info.Size()
	if t.finished[h] {
		if size == t.finishedSize[h] {
			return false, nil
		}
		delta := size - t.finishedSize[h]
		t.finishedSize[h] = size
		if !t.send(ctx, event{kind: evLateGrowth, hour: h, bytes: delta}) {
			return false, ctx.Err()
		}
		return true, nil
	}
	if size == t.lastSize[h] {
		return false, nil
	}
	t.lastSize[h] = size
	return t.readHour(ctx, h, path)
}

func (t *tailer) readHour(ctx context.Context, h int, path string) (bool, error) {
	r, err := flowtuple.Open(path)
	if err != nil {
		switch {
		case errors.Is(err, flowtuple.ErrTruncated):
			return false, nil // header still being written
		case errors.Is(err, flowtuple.ErrBadFormat):
			return true, t.corrupt(ctx, h, path, err)
		default:
			return false, nil // transient I/O; retry next sweep
		}
	}
	defer r.Close()
	batch := t.batch
	// Skip the cursor: records delivered on earlier polls of this file.
	for skipped := uint64(0); skipped < t.cursor[h]; {
		want := t.cursor[h] - skipped
		if want > uint64(len(batch)) {
			want = uint64(len(batch))
		}
		n, err := r.NextBatch(batch[:want])
		if n == 0 {
			// The file no longer yields records it already yielded: the
			// readable prefix shrank or rotted under us. Growth-only is the
			// producer contract, so this is permanent damage.
			return true, t.corrupt(ctx, h, path, fmt.Errorf(
				"stream: hour %d replays %d of %d delivered records (%v): %w",
				h, skipped, t.cursor[h], err, flowtuple.ErrBadFormat))
		}
		skipped += uint64(n)
	}
	progressed := false
	for {
		if err := ctx.Err(); err != nil {
			return progressed, err
		}
		n, err := r.NextBatch(batch)
		if n > 0 {
			recs := make([]flowtuple.Record, n)
			copy(recs, batch[:n])
			if !t.send(ctx, event{kind: evRecords, hour: h, recs: recs}) {
				return progressed, ctx.Err()
			}
			t.cursor[h] += uint64(n)
			progressed = true
			continue
		}
		switch {
		case err == io.EOF:
			t.finished[h] = true
			t.finishedSize[h] = t.lastSize[h]
			if fi, statErr := os.Stat(path); statErr == nil {
				t.finishedSize[h] = fi.Size()
			}
			if !t.send(ctx, event{kind: evComplete, hour: h}) {
				return progressed, ctx.Err()
			}
			return true, nil
		case errors.Is(err, flowtuple.ErrTruncated):
			return progressed, nil // still growing; keep the cursor
		default:
			return true, t.corrupt(ctx, h, path, err)
		}
	}
}

// corrupt retires the hour (no further reads) and reports it to the
// window stage, which has the ingest loop quarantine it.
func (t *tailer) corrupt(ctx context.Context, h int, path string, err error) error {
	t.finished[h] = true
	t.finishedSize[h] = t.lastSize[h]
	if fi, statErr := os.Stat(path); statErr == nil {
		t.finishedSize[h] = fi.Size()
	}
	if !t.send(ctx, event{kind: evCorrupt, hour: h, err: err}) {
		return ctx.Err()
	}
	return nil
}

// send delivers an event, blocking until the window stage takes it or ctx
// ends: a full channel is the backpressure, and losing a control event
// would wedge the state machine.
func (t *tailer) send(ctx context.Context, ev event) bool {
	select {
	case t.out <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}
