package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"iotscope/internal/abusecontact"
	"iotscope/internal/core"
	"iotscope/internal/flowtuple"
	"iotscope/internal/notify"
	"iotscope/internal/outqueue"
)

func TestRunValidation(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", t.TempDir()}, io.Discard); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if err := run([]string{"-data", "x", "-drain"}, io.Discard); err == nil {
		t.Fatal("-drain without -queue-dir accepted")
	}
	if err := run([]string{"-drain", "-queue-dir", t.TempDir() + "/q"}, io.Discard); err != nil {
		t.Fatalf("drain-only mode rejected: %v", err)
	}
	// A value out of range is an error naming its flag, raised before the
	// dataset (missing here) is opened.
	missing := filepath.Join(t.TempDir(), "missing")
	for _, bad := range [][]string{{"-top", "-1"}, {"-min-devices", "0"}, {"-rate", "-1"}, {"-rate", "NaN"}, {"-rate", "Inf"}} {
		err := run(append([]string{"-data", missing}, bad...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Fatalf("%v: %v, want an error naming the flag", bad, err)
		}
	}
}

// An hour missing from the scenario's span, in the middle or at the end,
// fails the run with an error naming it before any complaint is built.
func TestRunRefusesIncompleteDataset(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 3)
	cfg.Hours = 4
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	for _, hour := range []int{1, 3} {
		path := flowtuple.HourPath(dir, hour)
		aside := filepath.Join(t.TempDir(), "aside")
		if err := os.Rename(path, aside); err != nil {
			t.Fatal(err)
		}
		queueDir := filepath.Join(t.TempDir(), "queue")
		err := run([]string{"-data", dir, "-queue-dir", queueDir}, io.Discard)
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), fmt.Sprintf("missing hour %d", hour)) {
			t.Fatalf("hour %d missing: %v, want an error naming it", hour, err)
		}
		q, err := outqueue.Open(queueDir)
		if err != nil {
			t.Fatal(err)
		}
		if n := q.Stats().Items; n != 0 {
			t.Fatalf("hour %d missing, yet %d complaints were queued", hour, n)
		}
		if err := os.Rename(aside, path); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunRendersBundles(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 3)
	cfg.Hours = 4
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "-top", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}

	// -top boundaries: 0 means "all", and a value far beyond the bundle
	// count clamps instead of indexing out of range.
	if err := run([]string{"-data", dir, "-top", "0"}, io.Discard); err != nil {
		t.Fatalf("-top 0: %v", err)
	}
	if err := run([]string{"-data", dir, "-top", "1000000"}, io.Discard); err != nil {
		t.Fatalf("-top beyond bundle count: %v", err)
	}

	// -min-devices boundaries: 1 is the floor; a huge threshold filters
	// every operator but still exits cleanly.
	if err := run([]string{"-data", dir, "-min-devices", "1"}, io.Discard); err != nil {
		t.Fatalf("-min-devices 1: %v", err)
	}
	if err := run([]string{"-data", dir, "-min-devices", "1000000"}, io.Discard); err != nil {
		t.Fatalf("-min-devices beyond device count: %v", err)
	}

	// PR 4's flag parity: -lenient is accepted like every other tool.
	if err := run([]string{"-data", dir, "-lenient", "-top", "1"}, io.Discard); err != nil {
		t.Fatalf("-lenient: %v", err)
	}
}

// What iotnotify prints and enqueues is what notify.BuildBundles builds
// from the analysis at the -min-devices floor: stdout is the header line
// plus each bundle's Render, and every queued complaint is rendered from
// the same bundles with the contact the resolver chain picks.
func TestRunMatchesBuildBundles(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.003, 5)
	cfg.Hours = 6
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed))
	if err != nil {
		t.Fatal(err)
	}
	build := func(minDevices int) []notify.Bundle {
		return notify.BuildBundles(notify.Sources{
			Result: res.Correlate, Inventory: ds.Inventory, Registry: ds.Registry,
			Threat: ds.Threat, Malware: ds.Malware, Catalog: ds.Catalog,
		}, notify.Config{MinDevices: minDevices, MinPackets: 1})
	}
	all := build(1)
	if len(all) < 2 {
		t.Fatalf("fixture has %d bundles; the floors below need at least 2", len(all))
	}
	for _, k := range []int{1, 2, len(all[0].Devices) + 1} {
		var want bytes.Buffer
		bundles := build(k)
		fmt.Fprintf(&want, "%d operators host inferred compromised IoT devices\n\n", len(bundles))
		for _, b := range bundles {
			if err := b.Render(&want); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&want, "----------------------------------------------------------------")
		}
		var got bytes.Buffer
		if err := run([]string{"-data", dir, "-top", "0", "-min-devices", strconv.Itoa(k)}, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("-min-devices %d: stdout differs from BuildBundles\ngot:\n%s\nwant:\n%s", k, got.Bytes(), want.Bytes())
		}
	}

	queueDir := filepath.Join(t.TempDir(), "queue")
	if err := run([]string{"-data", dir, "-queue-dir", queueDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	q, err := outqueue.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	resolver := abusecontact.NewResolver(abusecontact.Derive(ds.Registry, ds.Scenario.Seed))
	var want []outqueue.Notification
	for _, b := range all {
		c, err := resolver.Resolve(b.ISPIndex)
		if err != nil {
			continue
		}
		complaint, err := notify.RenderComplaint(b, notify.ComplaintMeta{
			Contact: c.Email, Tier: c.Source, WindowHours: outqueue.InitialWindowHours,
		})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, outqueue.Notification{
			DedupKey: fmt.Sprintf("as%d", b.ASN), Subject: complaint.Subject, Body: complaint.Body,
		})
	}
	items := q.Pending()
	if len(items) != len(want) || len(want) == 0 {
		t.Fatalf("queue holds %d items, want %d complaints", len(items), len(want))
	}
	for i, it := range items {
		if it.DedupKey != want[i].DedupKey || it.Subject != want[i].Subject || it.Body != want[i].Body {
			t.Fatalf("item %d (%s) differs from the complaint rendered from bundle %s", i, it.DedupKey, want[i].DedupKey)
		}
	}
}

// The acceptance-criteria scenario, in process: enqueue, "kill" (abandon
// the queue object with no shutdown), restart with the same -queue-dir,
// re-run the full pipeline, drain — the delivery log holds every
// notification exactly once and the rerun's complaints are all suppressed.
func TestEnqueueKillRestartDrainExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, 11)
	cfg.Hours = 4
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	queueDir := filepath.Join(t.TempDir(), "queue")
	sinkPath := filepath.Join(t.TempDir(), "delivered.txt")

	// First run: analysis + enqueue, no drain. The process "dies" after run
	// returns — nothing closes the queue; its durability is segment-based.
	if err := run([]string{"-data", dir, "-queue-dir", queueDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	q, err := outqueue.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	enqueued := q.Stats().Pending
	if enqueued == 0 {
		t.Fatal("first run enqueued nothing")
	}

	// Restart: same dataset, same queue. Every complaint is a repeat inside
	// its operator's suppression window; nothing new becomes pending.
	if err := run([]string{"-data", dir, "-queue-dir", queueDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	q2, err := outqueue.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Stats(); got.Pending != enqueued {
		t.Fatalf("rerun changed pending %d -> %d (dedup broken)", enqueued, got.Pending)
	}
	if got := q2.Stats(); got.Suppressed == 0 {
		t.Fatal("rerun suppressed nothing")
	}

	// Drain-only restart (no -data): deliver everything to the file sink.
	if err := run([]string{"-drain", "-queue-dir", queueDir, "-sink", sinkPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Drain again — idempotent; and drain after re-enqueueing the same world.
	if err := run([]string{"-drain", "-queue-dir", queueDir, "-sink", sinkPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "-queue-dir", queueDir, "-drain", "-sink", sinkPath}, io.Discard); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := outqueue.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	st := q3.Stats()
	if st.Pending != 0 || st.Sent != enqueued {
		t.Fatalf("final queue state %+v, want %d sent", st, enqueued)
	}
	delivered := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^=== end report id=(\d+)$`).FindAllSubmatch(data, -1) {
		delivered[string(m[1])]++
	}
	if len(delivered) != enqueued {
		t.Fatalf("sink holds %d distinct reports, want %d", len(delivered), enqueued)
	}
	for id, n := range delivered {
		if n != 1 {
			t.Fatalf("item %s delivered %d times", id, n)
		}
	}
}

// A drain cut short by rate limiting plus cancellation leaves the queue
// resumable: stdout-sink drain with -rate caps throughput but still
// delivers everything when allowed to finish.
func TestDrainRateFlag(t *testing.T) {
	queueDir := filepath.Join(t.TempDir(), "queue")
	q, err := outqueue.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue(
		outqueue.Notification{DedupKey: "as1", Contact: "a@b", Subject: "s", Body: "b", EventHour: 0},
		outqueue.Notification{DedupKey: "as2", Contact: "a@b", Subject: "s", Body: "b", EventHour: 0},
	); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-drain", "-queue-dir", queueDir, "-rate", "200", "-sink", "-"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	q2, err := outqueue.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	if st := q2.Stats(); st.Pending != 0 || st.Sent != 2 {
		t.Fatalf("rated drain left %+v", st)
	}
}
