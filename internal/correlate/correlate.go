package correlate

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
)

// Options tunes the correlator.
type Options struct {
	// Workers bounds concurrent hour files (default: GOMAXPROCS).
	Workers int
	// FaultPolicy selects strict (fail fast, the default) or lenient
	// (quarantine unreadable hours and continue) ingestion.
	FaultPolicy FaultPolicy
	// Shards routes each hour's records by source-IP prefix to this many
	// accumulation planes (power of two) that are folded back into one
	// before the hour is merged — see shard.go. 0 or 1 is one plane.
	Shards int
}

// bgPrecision is the precision of the HyperLogLog that counts distinct
// background sources (2^14 registers, ≈ 0.8 % standard error). Checkpoints
// carry it as BGPrecision, and a restore refuses any other.
const bgPrecision = 14

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// Correlator joins darknet traffic against an inventory.
type Correlator struct {
	inv  *devicedb.Inventory
	opts Options
	// shift maps a source address to its plane, SrcIP >> shift: 32 minus
	// log2(Shards), so one plane sends every address to index 0.
	shift uint

	// Hot-path copies of the inventory: a flat IP→index hash table for the
	// per-record join and a dense category array, so the inner loop never
	// copies a Device value or queries a generic map.
	ips    ipIndex
	devCat []uint8

	// scratch recycles hourScratch instances across hours and planes; see
	// dense.go.
	scratch sync.Pool
	// scratchAllocs counts fresh hourScratch constructions — the
	// observable face of pool health (a leak shows up as growth here).
	scratchAllocs atomic.Int64
}

// New returns a correlator over the inventory.
func New(inv *devicedb.Inventory, opts Options) *Correlator {
	c := &Correlator{inv: inv, opts: opts.withDefaults()}
	c.shift = 32 - uint(bits.TrailingZeros(uint(c.opts.Shards)))
	devs := inv.All()
	c.devCat = make([]uint8, len(devs))
	for i := range devs {
		c.devCat[i] = uint8(devs[i].Category)
	}
	c.ips = buildIPIndex(devs)
	return c
}

// hourOutcome is what a worker hands the merger: a folded, finalized hour
// scratch or the error that stopped the hour.
type hourOutcome struct {
	hour int
	s    *hourScratch
	err  error
}

// isCtxErr reports whether err is the context's own cancellation or
// deadline error — never a dataset fault, so it must not reach the
// quarantine/retry bookkeeping.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ProcessDataset correlates every hourly file in dir: an Incremental sized
// for the dataset, filled by a bounded pool of workers that each take one
// hour through the same window an Ingest or a live collector would (open,
// feed from the file, fold the planes), and one merger goroutine — the sole
// owner of the Incremental until it exits — that merges the hours as they
// complete. Merges commute, so worker scheduling cannot change the result.
//
// Under the Strict policy the run fails with the lowest failing hour's
// error; under Lenient a failing hour is booked and quarantined exactly as
// an incremental caller that gave up on it would, and the rest ingested.
//
// Cancelling ctx stops the run promptly: workers check ctx between record
// batches, no further hours are dispatched, in-flight windows are aborted
// (the scratch pool stays clean), and ProcessDataset returns ctx.Err() —
// cancellation is never recorded as an ingest fault or quarantine.
func (c *Correlator) ProcessDataset(ctx context.Context, dir string) (*Result, error) {
	res, _, err := c.processDataset(ctx, dir)
	return res, err
}

// processDataset also returns, per plane, the background records routed to
// it over the hours that sealed — the one figure of a ShardReport the
// Result cannot give back.
func (c *Correlator) processDataset(ctx context.Context, dir string) (*Result, []atomic.Uint64, error) {
	hours, err := flowtuple.DatasetHours(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(hours) == 0 {
		return nil, nil, fmt.Errorf("correlate: no hourly files in %s", dir)
	}
	inc, err := c.NewIncremental(hours[len(hours)-1] + 1)
	if err != nil {
		return nil, nil, err
	}

	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, c.opts.Workers)
		parts   = make(chan hourOutcome, c.opts.Workers)
		done    = make(chan struct{})
		routed  = make([]atomic.Uint64, c.opts.Shards)
		errHour = -1
		hourErr error
	)
	go func() {
		defer close(done)
		for o := range parts {
			err := o.err
			if err == nil {
				err = inc.merge(o.s)
			}
			switch {
			case err == nil || isCtxErr(err):
				// A worker stopped by cancellation produced no scratch and
				// no dataset fault; ctx.Err() is surfaced after the drain.
			case c.opts.FaultPolicy == Lenient:
				inc.FailHour(o.hour, err)
				inc.Quarantine(o.hour, err)
			case errHour == -1 || o.hour < errHour:
				errHour, hourErr = o.hour, err
			}
		}
	}()
	for _, hour := range hours {
		if ctx.Err() != nil {
			break // stop dispatching; drained below
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(hour int) {
			defer wg.Done()
			defer func() { <-sem }()
			s, err := inc.readHour(ctx, dir, hour, routed)
			parts <- hourOutcome{hour: hour, s: s, err: err}
		}(hour)
	}
	wg.Wait()
	close(parts)
	<-done
	if hourErr != nil {
		return nil, nil, hourErr
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return inc.Result(), routed, nil
}

// readHour is a batch worker's whole job: one hour file through a window,
// short of the merge. On success the caller owns the folded scratch; on
// error — including cancellation — every plane is already back in the pool.
// It reads nothing of inc the merger writes.
func (inc *Incremental) readHour(ctx context.Context, dir string, hour int, routed []atomic.Uint64) (*hourScratch, error) {
	w := inc.openWindow(hour)
	if err := w.feedFile(ctx, dir); err != nil {
		w.Abort()
		return nil, err
	}
	for k, s := range w.planes {
		routed[k].Add(s.bgRecords)
	}
	return w.fold(), nil
}

func newResult(hours int) *Result {
	res := &Result{
		Hours:        hours,
		Devices:      make(map[int]*DeviceStats),
		Hourly:       make([]HourStats, hours),
		UDPPorts:     make(map[uint16]*PortAgg),
		TCPScanPorts: make(map[uint16]*TCPPortAgg),
		TCPPortHour:  make(map[PortHour]uint64),
	}
	for i := range res.Hourly {
		res.Hourly[i].Hour = i
	}
	return res
}

// portBitset tracks unique 16-bit ports in 8 KiB.
type portBitset [65536 / 64]uint64

func (b *portBitset) add(p uint16) {
	b[p>>6] |= 1 << (p & 63)
}

func (b *portBitset) has(p uint16) bool {
	return b[p>>6]&(1<<(p&63)) != 0
}

func (b *portBitset) clear() {
	*b = portBitset{}
}

func (b *portBitset) count() uint64 {
	var n uint64
	for _, w := range b {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// or sets every port set in o.
func (b *portBitset) or(o *portBitset) {
	for i, w := range o {
		b[i] |= w
	}
}
