package flowtuple

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
)

// BatchSize is the record capacity WalkHourBatch uses per callback, sized so
// one batch roughly covers one 64 KiB decode buffer's worth of frames.
const BatchSize = 4096

// batchPool recycles the BatchSize-record buffers of WalkHourBatch and
// Verify, 96 KiB that would otherwise be allocated per hour file.
var batchPool = sync.Pool{New: func() any {
	b := make([]Record, BatchSize)
	return &b
}}

// frameSize is one on-disk frame: a tag byte plus an encoded record.
const frameSize = 1 + RecordSize

// NextBatch decodes up to len(dst) records into dst and returns how many it
// produced. It never returns records and an error together: n > 0 implies
// err == nil, and whatever stopped the batch — the footer's clean io.EOF or
// a corruption error — is returned by the next call. Complete frames are
// decoded in blocks straight out of the inflater's window, so a batch costs
// no per-record reads and no allocation.
//
// Error semantics are identical to Next: corrupt files yield an error
// wrapping ErrBadFormat, files that end before the footer additionally wrap
// ErrTruncated, and the footer's record-count check is enforced the same
// way (records decoded on the fast path count toward it).
func (r *Reader) NextBatch(dst []Record) (int, error) {
	z := r.z
	if z == nil {
		return 0, fmt.Errorf("flowtuple: read %s: %w", r.path, os.ErrClosed)
	}
	n := 0
	for n < len(dst) {
		// Fast path: decode every complete record frame already inflated.
		win, start := z.win[z.rpos:z.wpos], n
		for n < len(dst) && len(win) >= frameSize && win[0] == tagRecord {
			decodeInto(&dst[n], win[1:frameSize])
			win = win[frameSize:]
			n++
		}
		if n > start {
			r.read += uint32(n - start)
			z.rpos += (n - start) * frameSize
			continue
		}
		// Slow path: a frame spans the window's refill, the footer begins,
		// or the stream is damaged. Surface the records decoded so far
		// first; the next call re-enters here at n == 0, where one framed
		// read classifies the stream state with Next's exact semantics.
		if n > 0 {
			return n, nil
		}
		rec, err := r.next1()
		if err != nil {
			return 0, err
		}
		dst[0] = rec
		n = 1
	}
	return n, nil
}

// WalkHourBatch opens the given hour file in dir and invokes fn with
// successive batches of records. The batch slice is reused between calls
// and is only valid until fn returns; fn must copy any record it retains.
// Cancellation is checked between frames: once ctx is done the walk stops
// before the next batch and returns ctx.Err().
func WalkHourBatch(ctx context.Context, dir string, hour int, fn func(batch []Record) error) error {
	r, err := Open(HourPath(dir, hour))
	if err != nil {
		return err
	}
	defer r.Close()
	bp := batchPool.Get().(*[]Record)
	defer batchPool.Put(bp)
	buf := *bp
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.NextBatch(buf)
		if n > 0 {
			if err := fn(buf[:n]); err != nil {
				return err
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
