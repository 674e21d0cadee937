package correlate

import (
	"context"
	"fmt"
	"math/bits"
)

// Sharding is a routing choice inside the one correlation core, not a
// second engine: with Options.Shards = N a window accumulates into N planes
// keyed by the top log2(N) bits of the source address (Window.Feed), and
// hourScratch.absorb folds them back into one scratch before the hour is
// finalized and merged. A source IP — and therefore a device — lives in
// exactly one plane, so per-device state is disjoint across planes and
// per-port counters add; the only state different planes can both hold is
// the unique-destination sets, which absorb unions, and the background-
// sources HLL, whose registers it maxes — exactly the state an unpartitioned
// counter would reach, which is what makes the sharded result identical, not
// merely close.

// ShardOf returns the shard owning a source address: the top log2(shards)
// bits of the IP. shards must be a power of two; 1 maps everything to
// shard 0. With shards = 256 this is exactly a /8 partition of the
// telescope's address space.
func ShardOf(srcIP uint32, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(srcIP >> (32 - uint(bits.TrailingZeros(uint(shards)))))
}

// checkShards rejects a shard count the prefix routing cannot serve.
func (c *Correlator) checkShards() error {
	n := c.opts.Shards
	if bits.OnesCount(uint(n)) != 1 {
		return fmt.Errorf("correlate: shard count %d is not a power of two", n)
	}
	if n > 1<<16 {
		return fmt.Errorf("correlate: shard count %d exceeds 65536", n)
	}
	return nil
}

// ShardReport summarizes one shard's share of a run for observability
// (surfaced as per-shard StageMetrics through internal/pipeline).
type ShardReport struct {
	Shard      int
	Records    uint64 // records routed to the shard, incl. background
	RecordsIoT uint64
	Devices    int
}

// ProcessDatasetSharded is ProcessDataset plus one report per shard (one
// report when unsharded). The Result does not depend on the shard count.
func (c *Correlator) ProcessDatasetSharded(ctx context.Context, dir string) (*Result, []ShardReport, error) {
	res, routed, err := c.processDataset(ctx, dir)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]ShardReport, len(routed))
	for k := range reports {
		reports[k] = ShardReport{Shard: k, Records: routed[k].Load()}
	}
	devs := c.inv.All()
	for id, d := range res.Devices {
		r := &reports[ShardOf(uint32(devs[id].IP), len(reports))]
		r.Devices++
		r.RecordsIoT += d.Records
		r.Records += d.Records
	}
	return res, reports, nil
}
