package stream

import (
	"bytes"
	"encoding/json"
	"errors"
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
// write-ahead log fsynced per batch (a wal.Appender). Replay on open
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

// replay loads every complete line. Each line is one alert and a batch is
// one write, so everything before the final newline is intact — including
// the whole lines of a torn batch, which keep their IDs — and whatever
// follows it is a torn line.
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

// Append journals one alert: AppendBatch of a batch of one. The returned
// alert carries the assigned ID; emitted is false for a suppressed
// duplicate.
func (l *AlertLog) Append(a Alert) (Alert, bool, error) {
	out, err := l.AppendBatch([]Alert{a})
	if err != nil || len(out) == 0 {
		return a, false, err
	}
	return out[0], true, nil
}

// AppendBatch journals, in order, every alert of the batch whose key was
// never emitted — neither before nor earlier in the batch — with one write
// and one fsync, and returns those alerts with their IDs, assigned in
// order. Nothing changes in memory until the write is durable: on an error
// no alert is emitted, and a retry of the same batch assigns the same IDs.
// Publication to live subscribers must happen only after it returns.
func (l *AlertLog) AppendBatch(batch []Alert) ([]Alert, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var (
		out  []Alert
		seen = make(map[string]struct{}, len(batch))
		buf  bytes.Buffer
		enc  = json.NewEncoder(&buf) // one line per alert, as json.Marshal plus '\n'
	)
	for _, a := range batch {
		if _, dup := l.keys[a.Key]; dup {
			continue
		}
		if _, dup := seen[a.Key]; dup {
			continue
		}
		seen[a.Key] = struct{}{}
		a.ID = l.nextID + uint64(len(out))
		if l.f != nil {
			if err := enc.Encode(a); err != nil {
				return nil, err
			}
		}
		out = append(out, a)
	}
	if l.f != nil && len(out) > 0 {
		if err := l.f.Append(buf.Bytes()); err != nil {
			return nil, err
		}
	}
	for _, a := range out {
		l.keys[a.Key] = struct{}{}
	}
	l.alerts = append(l.alerts, out...)
	l.nextID += uint64(len(out))
	l.suppressed += uint64(len(batch) - len(out))
	return out, nil
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

// Emit journals one alert: EmitBatch of a batch of one.
func (h *Hub) Emit(a Alert) (Alert, bool, error) {
	out, err := h.EmitBatch([]Alert{a})
	if err != nil || len(out) == 0 {
		return a, false, err
	}
	return out[0], true, nil
}

// EmitBatch journals the batch (dedup, one durable append) and then
// broadcasts the alerts it emitted to live subscribers, in ID order.
func (h *Hub) EmitBatch(batch []Alert) ([]Alert, error) {
	out, err := h.log.AppendBatch(batch)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	for _, a := range out {
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
	}
	h.mu.Unlock()
	return out, nil
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
// Neither is the zero position when it does not parse: resending the whole
// journal to a client that asked for less is an error, answered with 400.
func sinceParam(r *http.Request) (uint64, error) {
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, errors.New("bad since position")
		}
		return n, nil
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, errors.New("bad Last-Event-ID")
		}
		return n, nil
	}
	return 0, nil
}

// maxLongPoll caps how long ServeList parks a long-poll request.
const maxLongPoll = 60 * time.Second

// ServeList answers GET with the alert backlog after ?since=N (a since
// that is not an alert ID is a 400). With
// ?wait=DURATION and an empty backlog it long-polls: the response is held
// until an alert arrives, the wait expires, or the client goes away.
func (h *Hub) ServeList(w http.ResponseWriter, r *http.Request) {
	since, err := sinceParam(r)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusBadRequest)
		return
	}
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
	since, err := sinceParam(r)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusBadRequest)
		return
	}
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
