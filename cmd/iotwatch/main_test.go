package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/faultfs"
	"iotscope/internal/flowtuple"
	"iotscope/internal/resultstore"
	"iotscope/internal/stream"
)

func generate(t *testing.T, seed uint64, hours int) string {
	t.Helper()
	dir := t.TempDir()
	cfg := core.DefaultConfig(0.002, seed)
	cfg.Hours = hours
	if _, err := core.Generate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Zero-valued flags are rejected or honoured, never accepted and then read
// as "unset" by the collector's defaults.
func TestRunValidation(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", t.TempDir(), "-once"}, io.Discard); err == nil {
		t.Fatal("empty dataset accepted")
	}
	for _, bad := range [][]string{
		{"-retries", "-1"}, {"-backoff", "0"}, {"-lateness", "0"}, {"-lateness", "-1"},
		{"-alarm", "NaN"}, {"-alarm", "-1"}, {"-alarm", "Inf"}, {"-alarm", "0.5"}, {"-alarm", "1"},
		{"-poll", "0"}, {"-poll", "-1s"},
	} {
		err := run(append([]string{"-data", t.TempDir()}, bad...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Fatalf("%v: %v, want an error naming the flag", bad, err)
		}
	}
}

// There is one watcher: the flag that used to pick the collector is gone,
// not kept as a no-op.
func TestFollowValidation(t *testing.T) {
	err := run([]string{"-data", t.TempDir(), "-follow"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not defined: -follow") {
		t.Fatalf("-follow: %v, want an unknown-flag error", err)
	}
}

func TestRunOnce(t *testing.T) {
	if err := run([]string{"-data", generate(t, 3, 5), "-once", "-poll", "2ms"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// restore loads the checkpoint a run left in ckptDir over its dataset.
func restore(t *testing.T, dir, ckptDir string) (*core.Dataset, core.Config, *correlate.Incremental) {
	t.Helper()
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Lenient = true
	cp, err := resultstore.ReadCheckpoint(filepath.Join(ckptDir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ds.RestoreIncremental(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg, inc
}

// A damaged dataset must not abort a drain: the bit-flipped hour is
// quarantined and named with its reason in the summary, the hour that ends
// early is sealed partial from its readable prefix, every other hour is
// ingested, and the run exits cleanly.
func TestRunOnceDamagedDataset(t *testing.T) {
	dir := generate(t, 4, 5)
	if err := faultfs.BitFlip(flowtuple.HourPath(dir, 1), 1, 0x08); err != nil {
		t.Fatal(err)
	}
	n, err := faultfs.UncompressedLen(flowtuple.HourPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.RecompressPrefix(flowtuple.HourPath(dir, 3), n/2); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ckpt := t.TempDir()
	if err := run([]string{"-data", dir, "-once", "-poll", "2ms", "-checkpoint-dir", ckpt}, &out); err != nil {
		t.Fatalf("damaged dataset aborted the watch: %v", err)
	}
	for _, want := range []string{"4 windows sealed (1 partial)", "1 quarantined", "    quarantined hour 1: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	_, _, inc := restore(t, dir, ckpt)
	if !inc.Quarantined(1) || inc.HoursIngested() != 4 {
		t.Fatalf("checkpoint holds %d hours, quarantined %v", inc.HoursIngested(), inc.QuarantinedHours())
	}
	// A resumed run re-reads nothing, and still names the hour given up on.
	out.Reset()
	if err := run([]string{"-data", dir, "-once", "-poll", "2ms", "-checkpoint-dir", ckpt}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0 windows sealed", "    quarantined hour 1: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("resumed summary lacks %q:\n%s", want, out.String())
		}
	}
}

// -retries 0 means never restart: the first ingest-loop error (here an hour
// file beyond the scenario's range, which no restart can fix) is returned
// as it is, where the default budget would restart three times.
func TestRetriesZeroNeverRestarts(t *testing.T) {
	dir := generate(t, 5, 2)
	data, err := os.ReadFile(flowtuple.HourPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flowtuple.HourPath(dir, 7), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-data", dir, "-once", "-poll", "2ms", "-retries", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "hour 7 outside") {
		t.Fatalf("run = %v, want the ingest loop's own error", err)
	}
	if !strings.Contains(out.String(), "restarts: 0\n") {
		t.Fatalf("restarted anyway:\n%s", out.String())
	}
}

// gatedWriter holds every write until the gate opens: a stalled terminal.
type gatedWriter struct {
	gate chan struct{}
	bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.gate
	return w.Buffer.Write(p)
}

// A burst larger than the printer's subscription buffer makes the hub cut
// it loose; it must resubscribe and replay the gap, so stdout carries every
// emitted alert once, in ID order.
func TestPrintAlertsSurvivesOverflow(t *testing.T) {
	hub := stream.NewHub(nil)
	out := gatedWriter{gate: make(chan struct{})}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		printAlerts(&out, hub, nil, 0, stop)
	}()
	const burst = 8 * printBuffer
	for i := 0; i < burst; i++ {
		if _, err := hub.EmitBatch([]stream.Alert{{Kind: "test", Key: fmt.Sprint("k", i), Hour: i}}); err != nil {
			t.Fatal(err)
		}
	}
	close(out.gate)
	close(stop)
	<-done
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != burst {
		t.Fatalf("printed %d of %d alerts", len(lines), burst)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("[hour %3d] ALERT test: k%d", i, i); line != want {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
	}
}

// The alert listener serves its two routes, and closes a connection that
// never finishes its request headers instead of holding it for as long as
// the client likes.
func TestAlertsListenerHeaderTimeout(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := alertsServer(stream.NewHub(nil))
	go srv.Serve(ln)
	defer srv.Close()
	for _, path := range []string{"/alerts", "/alerts/stream"} {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /alerts HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server answered a request whose headers never ended")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("a connection with unfinished headers is still open after %v", time.Since(start).Round(time.Second))
	}
}

// The restart contract through the real CLI path: a drain over a partial
// dataset checkpoints and journals its alerts, two interior hours land
// while the watcher is down (a backfill, admitted by -lateness), and a
// second run resumes from the checkpoint, ingests only those hours, and
// converges on the state of a cold batch run — byte-identical in its
// canonical re-encoding; the raw file depends on compaction timing — with
// every alert journaled exactly once across both runs and printed by the
// run that emitted it.
func TestFollowDrainResumeExactlyOnce(t *testing.T) {
	const hours = 6
	dir := generate(t, 91, hours)
	held := map[int][]byte{}
	for _, h := range []int{3, 4} {
		p := flowtuple.HourPath(dir, h)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		held[h] = b
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	ckpt := t.TempDir()
	args := []string{"-data", dir, "-once", "-lateness", "6",
		"-checkpoint-dir", ckpt, "-poll", "2ms", "-backoff", "1ms"}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("first run: %v", err)
	}
	journal := filepath.Join(ckpt, alertLogFile)
	first := len(readAlertJournal(t, journal))
	if first == 0 {
		t.Fatal("first run journaled no alerts")
	}

	for h, b := range held {
		if err := os.WriteFile(flowtuple.HourPath(dir, h), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	// Exactly-once: every journal key appears once, and the new-device
	// alerts match the full dataset's inferred device set.
	alerts := readAlertJournal(t, journal)
	keys := map[string]int{}
	devices := 0
	for _, a := range alerts {
		keys[a.Key]++
		if a.Kind == stream.KindNewDevice {
			devices++
		}
	}
	for k, n := range keys {
		if n != 1 {
			t.Errorf("alert key %q journaled %d times", k, n)
		}
	}
	if got := strings.Count(out.String(), "] ALERT "); got != len(alerts)-first {
		t.Errorf("resumed run printed %d alerts, journaled %d new ones", got, len(alerts)-first)
	}

	ds, cfg, followed := restore(t, dir, ckpt)
	inc, err := ds.NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < hours; h++ {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	if devices != len(inc.Result().Devices) {
		t.Fatalf("%d new-device alerts, want %d", devices, len(inc.Result().Devices))
	}

	canonical := func(inc *correlate.Incremental) []byte {
		path := filepath.Join(t.TempDir(), "canonical.irs")
		if err := resultstore.WriteCheckpoint(path, inc.Export()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if got, want := canonical(followed), canonical(inc); !bytes.Equal(got, want) {
		t.Fatalf("followed checkpoint diverged from batch oracle (%d vs %d bytes)", len(got), len(want))
	}
}

func readAlertJournal(t *testing.T, path string) []stream.Alert {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var alerts []stream.Alert
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var a stream.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		alerts = append(alerts, a)
	}
	return alerts
}
