package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotscope/internal/faultfs"
	"iotscope/internal/wal"
)

func TestAlertLogReplayAndDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	log, err := OpenAlertLog(path)
	if err != nil {
		t.Fatal(err)
	}
	a1, ok, err := log.Append(Alert{Kind: KindNewDevice, Key: "device/1", Hour: 0, Device: 1})
	if err != nil || !ok || a1.ID != 1 {
		t.Fatalf("first append: %+v, %v, %v", a1, ok, err)
	}
	if _, ok, err := log.Append(Alert{Kind: KindNewDevice, Key: "device/2", Hour: 1, Device: 2}); err != nil || !ok {
		t.Fatal(err)
	}
	if _, ok, _ := log.Append(Alert{Kind: KindNewDevice, Key: "device/1", Hour: 3, Device: 1}); ok {
		t.Fatal("duplicate key emitted")
	}
	if log.suppressed != 1 {
		t.Fatalf("suppressed = %d", log.suppressed)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial trailing line; replay truncates
	// it and the journal stays usable.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":3,"kind":"new-de`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	log, err = OpenAlertLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(log.alerts) != 2 {
		t.Fatalf("replayed %d alerts, want 2", len(log.alerts))
	}
	a3, ok, err := log.Append(Alert{Kind: KindDoSSpike, Key: "dos/h4", Hour: 4, Packets: 99})
	if err != nil || !ok || a3.ID != 3 {
		t.Fatalf("post-replay append: %+v, %v, %v", a3, ok, err)
	}
	since := log.Since(1)
	if len(since) != 2 || since[0].Key != "device/2" || since[1].Key != "dos/h4" {
		t.Fatalf("Since(1) = %+v", since)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3 {
		t.Fatalf("journal has %d complete lines, want 3", lines)
	}
}

// A journal append that fails while the process survives (ENOSPC, EIO) is
// retried in-process: the collector's supervisor restarts the ingest loop on
// the same Hub and re-derives the alert. Whatever the failed append left in
// the file — half a line from a torn write, a whole unsynced line from a
// refused fsync — must be gone before the retry lands, or the two glue into
// one line no later process start can parse. For every write and fsync of a
// short run: fail it, retry, close, reopen.
func TestAlertLogFailedAppendRetried(t *testing.T) {
	const n = 5
	run := func(in *faultfs.Injector) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "alerts.jsonl")
		log, err := openAlertLog(in, path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			a := Alert{Kind: KindNewDevice, Key: fmt.Sprintf("device/%d", i), Hour: i, Device: i}
			_, ok, err := log.Append(a)
			if err != nil {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatal(err)
				}
				_, ok, err = log.Append(a) // the supervisor's re-derivation
			}
			if err != nil || !ok {
				t.Fatalf("%s #%d: alert %d: emitted %v, %v", in.Op, in.K, i, ok, err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		replayed, err := OpenAlertLog(path)
		if err != nil {
			t.Fatalf("%s #%d: journal does not reopen: %v", in.Op, in.K, err)
		}
		defer replayed.Close()
		got := replayed.Since(0)
		if len(got) != n {
			t.Fatalf("%s #%d: journal holds %d alerts, want %d", in.Op, in.K, len(got), n)
		}
		for i, a := range got {
			if a.ID != uint64(i+1) || a.Key != fmt.Sprintf("device/%d", i+1) {
				t.Fatalf("%s #%d: entry %d is %+v", in.Op, in.K, i, a)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines != n {
			t.Fatalf("%s #%d: journal has %d lines, want %d", in.Op, in.K, lines, n)
		}
	}
	clean := &faultfs.Injector{}
	run(clean)
	for _, op := range []string{"write", "sync"} {
		if clean.Count(op) != n {
			t.Fatalf("clean run made %d %ss, want one per append", clean.Count(op), op)
		}
		for k := 1; k <= n; k++ {
			in := &faultfs.Injector{Op: op, K: k}
			run(in)
			if !in.Tripped() {
				t.Fatalf("%s #%d never fired", op, k)
			}
		}
	}

	// A sealed window's alerts are one batch: one write and one fsync after
	// an alert already journaled. Torn at every byte of that write, or failed
	// at its fsync, the batch still lands exactly once, whether the process
	// dies (the journal is reopened and the same batch appended again) or
	// survives and retries on the same log: every key once, IDs contiguous
	// from 1, and every line that reached the file keeps its ID.
	first := Alert{Kind: KindNewDevice, Key: "device/0", Hour: 0}
	batch := []Alert{
		{Kind: KindNewDevice, Key: "device/1", Hour: 1, Device: 1},
		{Kind: KindDoSSpike, Key: "dos/h1", Hour: 1, Packets: 99, Ratio: 9.5},
		{Kind: KindNewDevice, Key: "device/1", Hour: 1, Device: 1}, // repeated within the batch
		{Kind: KindNewCampaign, Key: "campaign/p23-2323", Hour: 1, Devices: []int{1, 2}, Ports: []uint16{2323, 23}},
	}
	wantKeys := []string{"device/0", "device/1", "dos/h1", "campaign/p23-2323"}
	runBatch := func(in *faultfs.Injector) {
		t.Helper()
		what := fmt.Sprintf("%s #%d (crash %v)", in.Op, in.K, in.Crash)
		path := filepath.Join(t.TempDir(), "alerts.jsonl")
		log, err := openAlertLog(in, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := log.Append(first); err != nil || !ok {
			t.Fatalf("%s: first append: %v, %v", what, ok, err)
		}
		survivors := map[string]uint64{} // batch lines a dead process left whole
		out, err := log.AppendBatch(batch)
		if err == nil {
			if in.Tripped() {
				t.Fatalf("%s: a failed batch reported success", what)
			}
		} else {
			if !errors.Is(err, faultfs.ErrInjected) || len(out) != 0 || len(log.alerts) != 1 {
				t.Fatalf("%s: failed batch: %v, emitted %d, log holds %d", what, err, len(out), len(log.alerts))
			}
			if in.Crash {
				log.Close()
				in.Reboot()
				if log, err = openAlertLog(in, path); err != nil {
					t.Fatalf("%s: torn journal does not reopen: %v", what, err)
				}
				for _, a := range log.Since(1) {
					survivors[a.Key] = a.ID
				}
			}
			out, err = log.AppendBatch(batch) // the re-derived window
			if err != nil {
				t.Fatalf("%s: retried batch: %v", what, err)
			}
			if len(out)+len(survivors) != len(wantKeys)-1 {
				t.Fatalf("%s: retry emitted %d beside %d surviving lines", what, len(out), len(survivors))
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		replayed, err := OpenAlertLog(path)
		if err != nil {
			t.Fatalf("%s: journal does not reopen: %v", what, err)
		}
		defer replayed.Close()
		got := replayed.Since(0)
		if len(got) != len(wantKeys) {
			t.Fatalf("%s: journal holds %d alerts, want %d", what, len(got), len(wantKeys))
		}
		for i, a := range got {
			if a.ID != uint64(i+1) || a.Key != wantKeys[i] {
				t.Fatalf("%s: entry %d is %+v", what, i, a)
			}
			if id, ok := survivors[a.Key]; ok && id != a.ID {
				t.Fatalf("%s: surviving %s moved from ID %d to %d", what, a.Key, id, a.ID)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines != len(wantKeys) {
			t.Fatalf("%s: journal has %d lines, want %d", what, lines, len(wantKeys))
		}
	}
	cleanBatch := &faultfs.Injector{}
	runBatch(cleanBatch)
	if cleanBatch.Count("write") != 2 || cleanBatch.Count("sync") != 2 {
		t.Fatalf("a batch made %d writes and %d fsyncs, want one each",
			cleanBatch.Count("write")-1, cleanBatch.Count("sync")-1)
	}
	size := batchBytes(t, batch)
	for _, crash := range []bool{true, false} {
		for k := 0; k < size; k++ {
			in := &faultfs.Injector{Op: "write", K: 2, Crash: crash, Tear: func(int) int { return k }}
			runBatch(in)
			if !in.Tripped() {
				t.Fatalf("write torn at %d never fired", k)
			}
		}
		in := &faultfs.Injector{Op: "sync", K: 2, Crash: crash}
		runBatch(in)
		if !in.Tripped() {
			t.Fatal("batch fsync failure never fired")
		}
	}
}

// batchBytes is the size of the one write that journals the batch.
func batchBytes(t *testing.T, batch []Alert) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	log, err := OpenAlertLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// Damage before the journal's last newline is not a torn append: the open
// fails, permanently, in the wal taxonomy.
func TestAlertLogInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	journal := `{"id":1,"kind":"new-device","key":"device/1","hour":0}` + "\n" +
		`{"id":2,"kind":"new-de` + "\n" +
		`{"id":3,"kind":"new-device","key":"device/3","hour":0}` + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenAlertLog(path)
	if !errors.Is(err, wal.ErrBadFormat) || errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("interior corruption: %v; want permanent wal.ErrBadFormat", err)
	}
	if data, _ := os.ReadFile(path); string(data) != journal {
		t.Fatal("a journal that failed to open was modified")
	}
}

func TestHubOverflowClosesSubscriber(t *testing.T) {
	hub := NewHub(nil)
	ch, cancel := hub.Subscribe(1)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := hub.EmitBatch([]Alert{{Kind: KindNewDevice, Key: "device/" + string(rune('a'+i)), Hour: i}}); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer 1: the first alert is buffered, the second overflows and the
	// channel closes after it.
	if a, open := <-ch; !open || a.ID != 1 {
		t.Fatalf("first receive: %+v, open %v", a, open)
	}
	if _, open := <-ch; open {
		t.Fatal("overflowed subscription still open")
	}
	hub.mu.Lock()
	subs := len(hub.subs)
	hub.mu.Unlock()
	if subs != 0 {
		t.Fatalf("%d subscribers after overflow", subs)
	}
	// The dropped client recovers the gap from the log.
	if missed := hub.Since(1); len(missed) != 2 {
		t.Fatalf("Since(1) = %d alerts, want 2", len(missed))
	}
}

func TestServeListLongPoll(t *testing.T) {
	hub := NewHub(nil)
	srv := httptest.NewServer(http.HandlerFunc(hub.ServeList))
	defer srv.Close()
	if _, err := hub.EmitBatch([]Alert{{Kind: KindNewDevice, Key: "device/7", Hour: 0, Device: 7}}); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (alerts []Alert, latest uint64) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Alerts []Alert `json:"alerts"`
			Latest uint64  `json:"latest"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Alerts, body.Latest
	}

	alerts, latest := get(srv.URL + "?since=0")
	if len(alerts) != 1 || alerts[0].Device != 7 || latest != 1 {
		t.Fatalf("backlog: %+v latest %d", alerts, latest)
	}

	// Long-poll: a request past the backlog parks until the next emit.
	type polled struct {
		alerts []Alert
		latest uint64
	}
	got := make(chan polled, 1)
	go func() {
		a, l := get(srv.URL + "?since=1&wait=10s")
		got <- polled{a, l}
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	if _, err := hub.EmitBatch([]Alert{{Kind: KindDoSSpike, Key: "dos/h2", Hour: 2, Packets: 10}}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if len(p.alerts) != 1 || p.alerts[0].Kind != KindDoSSpike || p.latest != 2 {
			t.Fatalf("long-poll result: %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}

	// A bad wait duration is a 400, not a hang.
	resp, err := http.Get(srv.URL + "?wait=forever")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: status %d", resp.StatusCode)
	}

	// A resume position that is not an alert ID is a 400, not a replay of
	// the whole journal.
	for _, q := range []string{"?since=abc", "?since=-1", "?since=1.5"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
	}
}

func TestServeStreamSSEResume(t *testing.T) {
	hub := NewHub(nil)
	srv := httptest.NewServer(http.HandlerFunc(hub.ServeStream))
	defer srv.Close()
	for i := 1; i <= 2; i++ {
		if _, err := hub.EmitBatch([]Alert{{Kind: KindNewDevice, Key: "device/" + string(rune('0'+i)), Hour: i, Device: i}}); err != nil {
			t.Fatal(err)
		}
	}

	// Reconnect with Last-Event-ID 1: event 2 replays from the backlog,
	// event 3 arrives live.
	req, err := http.NewRequest("GET", srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan Alert, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var a Alert
				if json.Unmarshal([]byte(data), &a) == nil {
					events <- a
				}
			}
		}
	}()

	expect := func(id uint64) Alert {
		t.Helper()
		select {
		case a := <-events:
			if a.ID != id {
				t.Fatalf("event id %d, want %d", a.ID, id)
			}
			return a
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", id)
			return Alert{}
		}
	}
	expect(2)
	if _, err := hub.EmitBatch([]Alert{{Kind: KindNewCampaign, Key: "campaign/p23", Hour: 3, Ports: []uint16{23}}}); err != nil {
		t.Fatal(err)
	}
	if a := expect(3); a.Kind != KindNewCampaign {
		t.Fatalf("live event: %+v", a)
	}

	// A malformed resume position is refused before the stream starts.
	for _, bad := range []struct{ query, lastID string }{
		{"?since=abc", ""}, {"?since=-1", ""}, {"", "junk"}, {"", "-1"},
	} {
		req, err := http.NewRequest("GET", srv.URL+bad.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad.lastID != "" {
			req.Header.Set("Last-Event-ID", bad.lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") == "text/event-stream" {
			t.Fatalf("%+v: status %d, %s", bad, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
	}
}
