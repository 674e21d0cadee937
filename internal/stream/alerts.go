package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"iotscope/internal/wal"
)

// Alert kinds emitted by the streaming collector.
const (
	// KindNewDevice fires the first time a compromised device is ever
	// observed — the paper's near-real-time notification feed.
	KindNewDevice = "new-device"
	// KindDoSSpike fires when a sealed window's backscatter exceeds the
	// alarm multiple of the running median (a DoS victim inside the
	// telescope's view); Device is the hour's dominant victim.
	KindDoSSpike = "dos-spike"
	// KindNewCampaign fires when a coordinated-scan campaign fingerprint
	// is seen for the first time.
	KindNewCampaign = "new-campaign"
)

// Alert is one low-latency detection event. ID is assigned by the alert
// log, monotonically from 1, and doubles as the SSE event id so clients
// resume exactly where they dropped. Key is the dedup identity: the log
// emits each key at most once, ever — the streaming analog of outqueue's
// per-key suppression discipline, with an infinite window because every
// alert kind is a first-occurrence event.
type Alert struct {
	ID      uint64   `json:"id"`
	Kind    string   `json:"kind"`
	Key     string   `json:"key"`
	Hour    int      `json:"hour"`
	Device  int      `json:"device,omitempty"`
	Packets uint64   `json:"packets,omitempty"`
	Ratio   float64  `json:"ratio,omitempty"`
	Devices []int    `json:"devices,omitempty"`
	Ports   []uint16 `json:"ports,omitempty"`
}

// AlertLog is the durable, deduplicating alert journal: a JSONL
// write-ahead log fsynced per append (a wal.Appender). Replay on open
// rebuilds the key set and the backlog; a partial trailing line (crash
// mid-append, or a failed append the process survived) is truncated away,
// which keeps the exactly-once contract — an alert whose append never
// became durable is re-derived and re-appended when the resumed collector
// re-seals its window, and a key that did become durable suppresses the
// re-derived copy. With an empty path the log is memory-only (no
// durability, same dedup).
type AlertLog struct {
	mu         sync.Mutex
	f          *wal.Appender // nil for a memory-only log
	keys       map[string]struct{}
	alerts     []Alert
	nextID     uint64
	suppressed uint64
}

// OpenAlertLog opens (or creates) the journal at path, replaying its
// contents. path "" yields a memory-only log. A line that does not parse
// before the last newline is damage to journaled alerts: wal.ErrBadFormat.
func OpenAlertLog(path string) (*AlertLog, error) { return openAlertLog(nil, path) }

// openAlertLog is OpenAlertLog over an injectable file system (crash tests).
func openAlertLog(fsys wal.FS, path string) (*AlertLog, error) {
	l := &AlertLog{keys: make(map[string]struct{}), nextID: 1}
	if path == "" {
		return l, nil
	}
	var err error
	if l.f, err = wal.OpenAppend(fsys, path, l.replay); err != nil {
		return nil, fmt.Errorf("stream: alert log %s: %w", path, err)
	}
	return l, nil
}

// replay loads every complete line. Appends are single writes + fsync, so
// everything before the final newline is intact and whatever follows it is
// a torn append.
func (l *AlertLog) replay(data []byte) (int, error) {
	keep := bytes.LastIndexByte(data, '\n') + 1
	for _, line := range bytes.Split(data[:keep], []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var a Alert
		if err := json.Unmarshal(line, &a); err != nil {
			return 0, fmt.Errorf("corrupt: %v: %w", err, wal.ErrBadFormat)
		}
		if _, dup := l.keys[a.Key]; dup {
			continue
		}
		l.keys[a.Key] = struct{}{}
		l.alerts = append(l.alerts, a)
		if a.ID >= l.nextID {
			l.nextID = a.ID + 1
		}
	}
	return keep, nil
}

// Append journals the alert unless its key was already emitted. The
// returned alert carries the assigned ID; emitted is false for a
// suppressed duplicate. The append is durable (fsync) before it returns —
// publication to live subscribers must happen only after.
func (l *AlertLog) Append(a Alert) (Alert, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.keys[a.Key]; dup {
		l.suppressed++
		return a, false, nil
	}
	a.ID = l.nextID
	if l.f != nil {
		line, err := json.Marshal(a)
		if err != nil {
			return a, false, err
		}
		if err := l.f.Append(append(line, '\n')); err != nil {
			return a, false, err
		}
	}
	l.nextID++
	l.keys[a.Key] = struct{}{}
	l.alerts = append(l.alerts, a)
	return a, true, nil
}

// Since returns every alert with ID > id, in emission order.
func (l *AlertLog) Since(id uint64) []Alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.alerts)
	for i > 0 && l.alerts[i-1].ID > id {
		i--
	}
	return append([]Alert(nil), l.alerts[i:]...)
}

// Len reports how many alerts have been emitted.
func (l *AlertLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.alerts)
}

// Suppressed reports how many appends were deduplicated.
func (l *AlertLog) Suppressed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.suppressed
}

// Close closes the backing file, if any.
func (l *AlertLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Hub fans alerts out to live subscribers (SSE streams, long-pollers) on
// top of the durable log. Emission order is the log's order; a subscriber
// that falls behind its buffer is disconnected and reconnects with its
// last seen ID, replaying the gap from the log — slow clients cost a
// reconnect, never collector backpressure.
type Hub struct {
	log  *AlertLog
	mu   sync.Mutex
	subs map[chan Alert]struct{}
}

// NewHub wraps the log (nil for a private memory-only log).
func NewHub(log *AlertLog) *Hub {
	if log == nil {
		log, _ = OpenAlertLog("")
	}
	return &Hub{log: log, subs: make(map[chan Alert]struct{})}
}

// Log returns the underlying alert log.
func (h *Hub) Log() *AlertLog { return h.log }

// Emit journals the alert (dedup + durable) and, if it was emitted,
// broadcasts it to live subscribers.
func (h *Hub) Emit(a Alert) (Alert, bool, error) {
	a, emitted, err := h.log.Append(a)
	if err != nil || !emitted {
		return a, emitted, err
	}
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- a:
		default:
			// Buffer full: cut the subscriber loose. Its handler sees the
			// closed channel and ends the response; the client reconnects
			// with Last-Event-ID and replays the gap from the log.
			delete(h.subs, ch)
			close(ch)
		}
	}
	h.mu.Unlock()
	return a, true, nil
}

// Since returns every alert after id.
func (h *Hub) Since(id uint64) []Alert { return h.log.Since(id) }

// Subscribe registers a live listener with the given channel buffer and
// returns the channel plus a cancel function. The channel is closed on
// cancel or on overflow.
func (h *Hub) Subscribe(buf int) (<-chan Alert, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Alert, buf)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
	return ch, cancel
}

// Subscribers reports the live subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// sinceParam resolves the client's resume position: the since query
// parameter, or for SSE reconnects the standard Last-Event-ID header.
func sinceParam(r *http.Request) uint64 {
	if v := r.URL.Query().Get("since"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// maxLongPoll caps how long ServeList parks a long-poll request.
const maxLongPoll = 60 * time.Second

// ServeList answers GET with the alert backlog after ?since=N. With
// ?wait=DURATION and an empty backlog it long-polls: the response is held
// until an alert arrives, the wait expires, or the client goes away.
func (h *Hub) ServeList(w http.ResponseWriter, r *http.Request) {
	since := sinceParam(r)
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, `{"error":"bad wait duration"}`, http.StatusBadRequest)
			return
		}
		wait = min(d, maxLongPoll)
	}
	alerts := h.Since(since)
	if len(alerts) == 0 && wait > 0 {
		ch, cancel := h.Subscribe(1)
		defer cancel()
		// Re-check after subscribing: an alert emitted between the first
		// Since and Subscribe would otherwise park us its whole wait.
		if alerts = h.Since(since); len(alerts) == 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-r.Context().Done():
			case <-t.C:
			case <-ch:
			}
			alerts = h.Since(since)
		}
	}
	latest := since
	if n := len(alerts); n > 0 {
		latest = alerts[n-1].ID
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"alerts": alerts, "latest": latest}) //nolint:errcheck // client went away
}

// ServeStream answers GET with a Server-Sent Events stream: the backlog
// after the resume position first, then live alerts as they are emitted.
// Event IDs are alert IDs, so a dropped client reconnects with
// Last-Event-ID and misses nothing.
func (h *Hub) ServeStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, `{"error":"streaming unsupported"}`, http.StatusInternalServerError)
		return
	}
	since := sinceParam(r)
	ch, cancel := h.Subscribe(64)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, a := range h.Since(since) {
		writeSSE(w, a)
		since = a.ID
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case a, open := <-ch:
			if !open {
				// Overflowed: end the stream; the client reconnects and
				// replays from its Last-Event-ID.
				return
			}
			if a.ID <= since {
				continue // already replayed from the backlog
			}
			writeSSE(w, a)
			fl.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, a Alert) {
	data, err := json.Marshal(a)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", a.ID, a.Kind, data)
}
