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
	if log.Suppressed() != 1 {
		t.Fatalf("suppressed = %d", log.Suppressed())
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
	if log.Len() != 2 {
		t.Fatalf("replayed %d alerts, want 2", log.Len())
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
		if _, _, err := hub.Emit(Alert{Kind: KindNewDevice, Key: "device/" + string(rune('a'+i)), Hour: i}); err != nil {
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
	if hub.Subscribers() != 0 {
		t.Fatalf("%d subscribers after overflow", hub.Subscribers())
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
	if _, _, err := hub.Emit(Alert{Kind: KindNewDevice, Key: "device/7", Hour: 0, Device: 7}); err != nil {
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
	if _, _, err := hub.Emit(Alert{Kind: KindDoSSpike, Key: "dos/h2", Hour: 2, Packets: 10}); err != nil {
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
}

func TestServeStreamSSEResume(t *testing.T) {
	hub := NewHub(nil)
	srv := httptest.NewServer(http.HandlerFunc(hub.ServeStream))
	defer srv.Close()
	for i := 1; i <= 2; i++ {
		if _, _, err := hub.Emit(Alert{Kind: KindNewDevice, Key: "device/" + string(rune('0'+i)), Hour: i, Device: i}); err != nil {
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
	if _, _, err := hub.Emit(Alert{Kind: KindNewCampaign, Key: "campaign/p23", Hour: 3, Ports: []uint16{23}}); err != nil {
		t.Fatal(err)
	}
	if a := expect(3); a.Kind != KindNewCampaign {
		t.Fatalf("live event: %+v", a)
	}
}
