package iotscope_test

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/notify"
	"iotscope/internal/resultstore"
	"iotscope/internal/scenario"
	"iotscope/internal/stream"
)

// goldenDigests pins resultstore.DigestResult per bundled scenario at scale
// 0.002, seed 7, full window — recorded at PR 12's commit, before seals
// became O(window). Every execution mode must reach it: the digest is the
// content address of the analyzed state, so a mode that drifts, or a
// change that moves all of them, fails here by name.
var goldenDigests = map[string]uint32{
	"cps-campaign@1":       0x514c9371,
	"mirai-wave@1":         0x43c354d0,
	"paper-default@1":      0x758fc320,
	"smart-home-diurnal@1": 0xd491b3cb,
	"stealth-scan@1":       0xcf26b350,
	"telescope-16@1":       0xedcaa672,
	"telescope-24@1":       0x8c1f292c,
	"udp-amplification@1":  0x009dcd36,
}

// TestScenarioModeDigests runs every bundled scenario through batch
// (Workers 1 and 8), sharded 2 and 8, incremental in both hour orders,
// windows fed in 1-record and 4097-record batches, streamed, and a restore
// of the streamed run's live checkpoint file (base + delta frames), and
// requires the one golden digest from all ten.
func TestScenarioModeDigests(t *testing.T) {
	metas := scenario.List()
	if len(metas) != len(goldenDigests) {
		t.Fatalf("%d bundled scenarios, %d golden digests", len(metas), len(goldenDigests))
	}
	for _, m := range metas {
		t.Run(m.Ref(), func(t *testing.T) {
			t.Parallel()
			scenarioModeDigests(t, m)
		})
	}
}

func scenarioModeDigests(t *testing.T, m scenario.Meta) {
	want, ok := goldenDigests[m.Ref()]
	if !ok {
		t.Fatalf("no golden digest for %s", m.Ref())
	}
	rs, err := scenario.Resolve(m.Ref(), scenario.Options{Scale: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(0.002, 7)
	cfg.Lenient = true
	ds, err := core.GenerateScenario(cfg, rs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	check := func(mode string, res *correlate.Result) {
		t.Helper()
		got, err := resultstore.DigestResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: digest %08x, golden %08x", mode, got, want)
		}
	}

	for _, mode := range []struct {
		name            string
		workers, shards int
	}{{"batch workers=1", 1, 0}, {"batch workers=8", 8, 0}, {"sharded 2", 2, 2}, {"sharded 8", 8, 8}} {
		c := cfg
		c.Workers, c.Shards = mode.workers, mode.shards
		res, err := correlate.New(ds.Inventory, c.CorrelatorOptions()).ProcessDataset(context.Background(), ds.Dir)
		if err != nil {
			t.Fatal(err)
		}
		check(mode.name, res)
	}

	for _, descending := range []bool{false, true} {
		inc, err := ds.NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.Scenario.Hours; i++ {
			h := i
			if descending {
				h = ds.Scenario.Hours - 1 - i
			}
			if _, err := inc.Ingest(context.Background(), ds.Dir, h); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("incremental descending=%v", descending), inc.Result())
	}

	for _, batchLen := range []int{1, flowtuple.BatchSize + 1} {
		inc, err := ds.NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]flowtuple.Record, batchLen)
		for h := 0; h < ds.Scenario.Hours; h++ {
			w, err := inc.OpenWindow(h)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := flowtuple.Open(flowtuple.HourPath(ds.Dir, h))
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				var n int
				n, err = rd.NextBatch(buf)
				if ferr := w.Feed(buf[:n]); ferr != nil {
					t.Fatal(ferr)
				}
			}
			rd.Close()
			if err != io.EOF {
				t.Fatal(err)
			}
			if _, err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("windows batch=%d", batchLen), inc.Result())
	}

	ckpt := filepath.Join(t.TempDir(), "checkpoint.irs")
	var streamed *correlate.Incremental
	col, err := stream.New(stream.Config{
		Dir: ds.Dir, CheckpointPath: ckpt, Poll: time.Millisecond, Drain: true, Campaigns: true,
	}, func() (*correlate.Incremental, error) {
		var err error
		streamed, err = ds.NewIncremental(cfg)
		return streamed, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("streamed", streamed.Result())
	if st := col.Stats(); st.CheckpointWrites != uint64(st.WindowsSealed) || st.CheckpointCompactions >= st.CheckpointWrites/2 {
		t.Errorf("streamed run committed mostly by rewrite, not append: %+v", st)
	}

	cp, err := resultstore.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Deltas) == 0 {
		t.Error("live checkpoint file holds no frames to replay")
	}
	restored, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint-restored", restored.Result())
}

// goldenComplaints pins the abuse complaints of every bundled scenario on
// the fixture goldenDigests uses (scale 0.002, seed 7, full window): the
// CRC-32 of each RenderComplaint subject and body over Views.Bundles(1), in
// bundle order, first under complaintMetas' first report and then under
// its repeat. Recorded while the complaint was still a text/template, so a
// renderer that drifts by one byte fails here by scenario.
var goldenComplaints = map[string]uint32{
	"cps-campaign@1":       0x7adffe6b,
	"mirai-wave@1":         0x605ee590,
	"paper-default@1":      0xcb278f6c,
	"smart-home-diurnal@1": 0xf3dcc4be,
	"stealth-scan@1":       0x30daad65,
	"telescope-16@1":       0xcb278f6c,
	"telescope-24@1":       0xcd3d986f,
	"udp-amplification@1":  0xa703180e,
}

// complaintMetas are the two variants every complaint digest covers: a
// first report opening a 24-hour window and a repeat doubling it.
var complaintMetas = []notify.ComplaintMeta{
	{Contact: "abuse@example.net", Tier: "registry", WindowHours: 24},
	{Contact: "abuse@example.net", Tier: "registry", WindowHours: 48, Repeat: true},
}

// TestScenarioComplaintDigests renders every bundled scenario's complaints
// and requires its golden digest. The fixture must also reach every
// optional line of a device block: a line no device carries is a line the
// digests do not pin, so the test fails naming it.
func TestScenarioComplaintDigests(t *testing.T) {
	metas := scenario.List()
	if len(metas) != len(goldenComplaints) {
		t.Fatalf("%d bundled scenarios, %d golden complaint digests", len(metas), len(goldenComplaints))
	}
	var (
		mu      sync.Mutex
		covered = make(map[string]bool)
	)
	t.Run("scenarios", func(t *testing.T) {
		for _, m := range metas {
			t.Run(m.Ref(), func(t *testing.T) {
				t.Parallel()
				lines := scenarioComplaintDigest(t, m)
				mu.Lock()
				defer mu.Unlock()
				for _, l := range lines {
					covered[l] = true
				}
			})
		}
	})
	for _, line := range []string{"services", "udp ports", "tcp ports", "threat flags", "malware families", "sandbox samples"} {
		if !covered[line] {
			t.Errorf("no device across the fixture carries the optional %s line", line)
		}
	}
}

// scenarioComplaintDigest checks one scenario's complaint digest and
// returns the optional device lines its bundles carry.
func scenarioComplaintDigest(t *testing.T, m scenario.Meta) []string {
	want, ok := goldenComplaints[m.Ref()]
	if !ok {
		t.Fatalf("no golden complaint digest for %s", m.Ref())
	}
	rs, err := scenario.Resolve(m.Ref(), scenario.Options{Scale: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(0.002, 7)
	cfg.Lenient = true
	ds, err := core.GenerateScenario(cfg, rs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bundles := res.Views.Bundles(1)
	h := crc32.NewIEEE()
	for _, meta := range complaintMetas {
		for _, b := range bundles {
			c, err := notify.RenderComplaint(b, meta)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s\n%s\x00", c.Subject, c.Body)
		}
	}
	if got := h.Sum32(); got != want {
		t.Errorf("complaint digest %08x over %d bundles, golden %08x", got, len(bundles), want)
	}
	var lines []string
	for _, b := range bundles {
		for _, d := range b.Devices {
			for line, present := range map[string]bool{
				"services":         len(d.Services) > 0,
				"udp ports":        len(d.UDPPorts) > 0,
				"tcp ports":        len(d.TCPPorts) > 0,
				"threat flags":     len(d.ThreatFlags) > 0,
				"malware families": len(d.MalwareFamilies) > 0,
				"sandbox samples":  len(d.MalwareHashes) > 0,
			} {
				if present {
					lines = append(lines, line)
				}
			}
		}
	}
	return lines
}
