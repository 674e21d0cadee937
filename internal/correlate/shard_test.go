package correlate

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// Sharding's contract is byte-identity: for any power-of-two shard count,
// the Result's canonical Export must equal the unsharded oracle's, under
// both fault policies, both counter modes, and any worker count. These
// tests are the proof; internal/resultstore carries the companion test that
// the identity survives the on-disk codec.

// requireSameExport compares two Results through the canonical Export
// encoding — the exact surface resultstore serializes.
func requireSameExport(t *testing.T, want, got *Result) {
	t.Helper()
	we, ge := want.Export(), got.Export()
	if reflect.DeepEqual(we, ge) {
		return
	}
	if !reflect.DeepEqual(we.Hourly, ge.Hourly) {
		for h := range we.Hourly {
			if !reflect.DeepEqual(we.Hourly[h], ge.Hourly[h]) {
				t.Fatalf("hour %d diverged:\n oracle  %+v\n sharded %+v", h, we.Hourly[h], ge.Hourly[h])
			}
		}
	}
	if !reflect.DeepEqual(we.Devices, ge.Devices) {
		t.Fatalf("device exports diverged (oracle %d devices, sharded %d)", len(we.Devices), len(ge.Devices))
	}
	if !reflect.DeepEqual(we.UDPPorts, ge.UDPPorts) {
		t.Fatal("UDP port exports diverged")
	}
	if !reflect.DeepEqual(we.TCPScanPorts, ge.TCPScanPorts) {
		t.Fatal("TCP scan port exports diverged")
	}
	if !reflect.DeepEqual(we.TCPPortHour, ge.TCPPortHour) {
		t.Fatal("port-hour exports diverged")
	}
	if we.Background != ge.Background {
		t.Fatalf("background diverged: oracle %+v sharded %+v", we.Background, ge.Background)
	}
	if !reflect.DeepEqual(we.Faults, ge.Faults) {
		t.Fatalf("fault exports diverged:\n oracle  %+v\n sharded %+v", we.Faults, ge.Faults)
	}
	t.Fatalf("exports diverged:\n oracle  %+v\n sharded %+v", we, ge)
}

func TestShardOf(t *testing.T) {
	cases := []struct {
		ip     uint32
		shards int
		want   int
	}{
		{0xFFFFFFFF, 1, 0},
		{0xFFFFFFFF, 2, 1},
		{0x7FFFFFFF, 2, 0},
		{0xFFFFFFFF, 4, 3},
		{0x40000000, 4, 1},
		{0x0A000001, 256, 0x0A},
		{0xC0A80101, 256, 0xC0},
	}
	for _, c := range cases {
		if got := ShardOf(c.ip, c.shards); got != c.want {
			t.Errorf("ShardOf(%#x, %d) = %d, want %d", c.ip, c.shards, got, c.want)
		}
	}
}

// Strict policy, clean dataset, exact counters: every power-of-two shard
// count reproduces the unsharded oracle exactly, at one worker and eight.
func TestShardedMatchesOracleStrict(t *testing.T) {
	dir, g := cleanDataset(t, 97, 6)
	oracle, err := New(g.Inventory(), Options{Workers: 4}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 2, 4, 8} {
			c := New(g.Inventory(), Options{Workers: workers, Shards: shards})
			got, reports, err := c.ProcessDatasetSharded(context.Background(), dir)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			requireSameExport(t, oracle, got)
			if len(reports) != shards {
				t.Fatalf("workers=%d shards=%d: %d reports", workers, shards, len(reports))
			}
			devs := 0
			var iot, all uint64
			for _, r := range reports {
				devs += r.Devices
				iot += r.RecordsIoT
				all += r.Records
			}
			if devs != len(got.Devices) {
				t.Fatalf("reports count %d devices, result has %d", devs, len(got.Devices))
			}
			var wantIoT uint64
			for i := range got.Hourly {
				wantIoT += got.Hourly[i].RecordsIoT
			}
			if iot != wantIoT || all != wantIoT+got.Background.Records {
				t.Fatalf("reports count %d IoT of %d records, result has %d of %d",
					iot, all, wantIoT, wantIoT+got.Background.Records)
			}
		}
	}
}

// Lenient policy over a damaged dataset: the sharded run quarantines the
// same hours with the same fault records and matches the oracle on
// everything the healthy hours contributed.
func TestShardedMatchesOracleLenient(t *testing.T) {
	dir, g := damagedDataset(t)
	oracle, err := New(g.Inventory(), Options{Workers: 4, FaultPolicy: Lenient}).
		ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		c := New(g.Inventory(), Options{Workers: 4, FaultPolicy: Lenient, Shards: shards})
		got, _, err := c.ProcessDatasetSharded(context.Background(), dir)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireSameExport(t, oracle, got)
		if got.Ingest.HoursOK != 3 || got.Ingest.HoursQuarantined != 2 {
			t.Fatalf("shards=%d: ingest %+v", shards, got.Ingest)
		}
	}
}

// Strict policy over a damaged dataset: the sharded run fails with the same
// deterministic lowest-hour error as the unsharded one.
func TestShardedStrictError(t *testing.T) {
	dir, g := damagedDataset(t)
	_, wantErr := New(g.Inventory(), Options{Workers: 4}).ProcessDataset(context.Background(), dir)
	if wantErr == nil {
		t.Fatal("oracle unexpectedly succeeded on damaged dataset")
	}
	c := New(g.Inventory(), Options{Workers: 4, Shards: 4})
	_, _, err := c.ProcessDatasetSharded(context.Background(), dir)
	if err == nil {
		t.Fatal("sharded run unexpectedly succeeded on damaged dataset")
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("sharded error %q, oracle error %q", err, wantErr)
	}
}

// The incremental engine is an independent second oracle: ingest the same
// hours one by one and demand the sharded batch run agrees on every
// downstream surface.
func TestShardedMatchesIncremental(t *testing.T) {
	dir, g := cleanDataset(t, 99, 5)
	c := New(g.Inventory(), Options{Workers: 2})
	inc, err := c.NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	for hour := 0; hour < 5; hour++ {
		if _, err := inc.Ingest(context.Background(), dir, hour); err != nil {
			t.Fatal(err)
		}
	}
	want := inc.Result()
	cs := New(g.Inventory(), Options{Workers: 2, Shards: 4})
	got, _, err := cs.ProcessDatasetSharded(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, want, got)
}

func TestShardedRejectsNonPowerOfTwo(t *testing.T) {
	dir, g := cleanDataset(t, 100, 2)
	c := New(g.Inventory(), Options{Workers: 2, Shards: 3})
	_, err := c.ProcessDataset(context.Background(), dir)
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("got %v, want power-of-two rejection", err)
	}
}

// Cancellation surfaces ctx.Err() and records no faults, exactly like the
// unsharded run.
func TestShardedCancellation(t *testing.T) {
	dir, g := cleanDataset(t, 103, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(g.Inventory(), Options{Workers: 2, Shards: 4, FaultPolicy: Lenient})
	_, _, err := c.ProcessDatasetSharded(ctx, dir)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAbsorbEqualsUnsharded is the fold's own proof, below the dataset
// driver: one hour routed to N planes and absorbed back into one must leave
// the very scratch a single plane accumulates — same finalized HourStats,
// same state once merged.
func TestAbsorbEqualsUnsharded(t *testing.T) {
	dir, g := cleanDataset(t, 104, 1)
	fold := func(shards int) (HourStats, *CheckpointExport) {
		t.Helper()
		c := New(g.Inventory(), Options{Shards: shards})
		inc, err := c.NewIncremental(1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := inc.OpenWindow(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.feedFile(context.Background(), dir); err != nil {
			t.Fatal(err)
		}
		busy := 0
		for _, s := range w.planes {
			if s.stats.RecordsIoT > 0 {
				busy++
			}
		}
		if shards > 1 && busy < 2 {
			t.Fatalf("shards=%d: IoT records reached %d plane(s); the fold is not exercised", shards, busy)
		}
		s := w.fold()
		stats := s.stats
		if err := inc.merge(s); err != nil {
			t.Fatal(err)
		}
		return stats, inc.Export()
	}
	wantStats, wantExport := fold(1)
	for _, shards := range []int{2, 8} {
		stats, export := fold(shards)
		if !reflect.DeepEqual(wantStats, stats) {
			t.Fatalf("shards=%d: hour stats diverged:\n one plane %+v\n absorbed  %+v",
				shards, wantStats, stats)
		}
		if !reflect.DeepEqual(wantExport, export) {
			t.Fatalf("shards=%d: merged export diverged", shards)
		}
	}
}
