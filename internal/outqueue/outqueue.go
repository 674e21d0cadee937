// Package outqueue is the persistent outbound queue behind the abuse
// notification pipeline: rendered complaints are enqueued durably, deduped
// per operator under escalating suppression windows, and drained to a
// delivery sink with their state (pending/sent/failed/suppressed) surviving
// any crash.
//
// The queue directory holds a contiguous run of immutable segment files,
// seg-00000001.oq onward; each mutation batch (an enqueue call, a single
// delivery-state transition) becomes one new segment, a wal sealed container
// written by wal.WriteAtomic, so a reader never observes a half-written
// segment and a killed process loses at most the mutation it had not yet
// committed. Re-opening the directory replays the segments in order through
// the same apply path the live queue uses, reconstructing byte-identical
// state. The frame, the footer, the atomic replace and the fault taxonomy —
// ErrTruncated (retryable) wraps ErrBadFormat (permanent) — are
// internal/wal's, stated once in docs/SNAPSHOTS.md §Durability; this package
// owns the header and the record payloads (all integers little-endian):
//
//	header  "IOQS" | version u8 | reserved u8 | reserved u16=0 | seq u32
//	record  frame tags 1 enqueue, 2 state, 3 suppress
//
// Deduplication is event-time based: the first accepted report for a dedup
// key suppresses repeats for 24 hours of event time, and every further
// accepted report doubles the window — the escalating ban-window scheme
// production abuse desks run so a noisy device does not flood its
// operator's mailbox.
package outqueue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"iotscope/internal/wal"
)

const (
	magic = "IOQS"
	// Version is the current segment codec version.
	Version = 1
	// InitialWindowHours is the suppression window after a key's first
	// accepted report; each further accepted report doubles it.
	InitialWindowHours = 24
	// maxWindowHours caps the doubling so the window arithmetic can never
	// overflow event-hour offsets.
	maxWindowHours = 1 << 20
)

const headerLen = 4 + 1 + 1 + 2 + 4

// Record kinds (0 is wal's footer).
const (
	recEnqueue  = 1
	recState    = 2
	recSuppress = 3
)

// ErrBadFormat indicates a corrupt or foreign segment file, or a replay
// that contradicts the queue's invariants (permanent); ErrTruncated, which
// wraps it, a segment that ends before its footer. They are wal's errors
// under the names this package's callers match.
var (
	ErrBadFormat = wal.ErrBadFormat
	ErrTruncated = wal.ErrTruncated
)

// isRetryable reports whether an Open failure may resolve on its own: a
// truncated segment (a producer may still be writing on a non-atomic
// transport) or a directory that does not exist yet. Structural corruption
// is permanent.
func isRetryable(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, fs.ErrNotExist)
}

func badf(format string, args ...any) error {
	return fmt.Errorf("outqueue: "+format+": %w", append(args, ErrBadFormat)...)
}

// State is an item's delivery state.
type State uint8

const (
	// StatePending awaits delivery.
	StatePending State = 1
	// StateSent was delivered to the sink.
	StateSent State = 2
	// StateFailed was abandoned after a permanent sink error or an
	// exhausted retry budget.
	StateFailed State = 3
	// StateSuppressed was deduplicated on enqueue: a repeat report inside
	// its key's suppression window. Never delivered.
	StateSuppressed State = 4
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateSent:
		return "sent"
	case StateFailed:
		return "failed"
	case StateSuppressed:
		return "suppressed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Notification is one rendered abuse report bound for a contact.
type Notification struct {
	// DedupKey identifies the notification target for suppression —
	// typically one key per operator (e.g. "as64512").
	DedupKey string
	// Contact is the resolved abuse mailbox.
	Contact string
	// Tier records which resolution tier produced the contact.
	Tier string
	// Subject and Body are the rendered complaint.
	Subject string
	Body    string
	// EventHour is the report's event time in dataset hours; suppression
	// windows are measured against it, not wall time.
	EventHour int
	// Devices and Packets summarize the evidence for stats.
	Devices int
	Packets uint64
}

// Item is one queued notification with its delivery state.
type Item struct {
	ID uint64
	Notification
	State    State
	Attempts int
	// Detail carries the failure reason for StateFailed.
	Detail string
}

// KeyState is the suppression bookkeeping for one dedup key.
type KeyState struct {
	// Reports counts accepted (non-suppressed) reports.
	Reports int
	// Suppressed counts deduplicated repeats.
	Suppressed int
	// LastHour is the event hour of the last accepted report.
	LastHour int
	// WindowHours is the suppression window now in force: repeats with
	// EventHour < LastHour+WindowHours are suppressed.
	WindowHours int
}

// NextWindowHours is the suppression window that one more accepted report
// puts in force: InitialWindowHours after the first, then doubling on each
// report while under the cap.
func (ks KeyState) NextWindowHours() int {
	switch {
	case ks.WindowHours == 0:
		return InitialWindowHours
	case ks.WindowHours < maxWindowHours:
		return ks.WindowHours * 2
	}
	return ks.WindowHours
}

// Stats summarizes queue state.
type Stats struct {
	Items      int `json:"items"`
	Pending    int `json:"pending"`
	Sent       int `json:"sent"`
	Failed     int `json:"failed"`
	Suppressed int `json:"suppressed"`
	Keys       int `json:"keys"`
	Segments   int `json:"segments"`
}

// Queue is the persistent outbound queue over one directory. All methods
// are safe for concurrent use; durability is committed before any mutation
// becomes visible in memory.
type Queue struct {
	dir string
	// fsys, when set by a test after Open, replaces the file system under
	// segment commits (internal/faultfs fails its k-th operation).
	fsys wal.FS

	mu      sync.Mutex
	items   []*Item // items[i].ID == i+1
	keys    map[string]*KeyState
	nextSeq uint32
}

// Open loads (or initializes) the queue at dir, replaying every segment.
// The segment run must be contiguous from 1: a gap means lost mutations
// and is permanent damage. Leftover .tmp files from a killed writer are
// removed — their rename never happened, so they were never part of the
// queue. A zero-length trailing segment (crash between create and first
// write) is tolerated as a lost commit: it is skipped and its sequence
// number reused.
func Open(dir string) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(name, "seg-%d.oq", &seq); err != nil || segName(uint32(seq)) != name {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	q := &Queue{dir: dir, keys: make(map[string]*KeyState), nextSeq: 1}
	for i, seq := range seqs {
		if seq != i+1 {
			return nil, badf("segment run has a gap: want seg %d, found %d", i+1, seq)
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(uint32(seq))))
		if err != nil {
			return nil, err
		}
		// A zero-length *trailing* segment is a lost commit, not damage: a
		// crash (or a non-atomic transport) created the file before any
		// byte of the mutation reached it, so the mutation was never
		// committed and the file was never part of history. Skip it and
		// reuse its sequence — the next commit atomically overwrites it.
		// Mid-run, the same emptiness means later mutations were applied
		// on top of a hole, which is permanent damage like any gap.
		if len(data) == 0 {
			if i == len(seqs)-1 {
				q.nextSeq = uint32(seq)
				break
			}
			return nil, badf("segment %d is empty mid-run", seq)
		}
		recs, err := decodeSegment(data, uint32(seq))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", segName(uint32(seq)), err)
		}
		for _, r := range recs {
			if err := q.apply(r); err != nil {
				return nil, fmt.Errorf("%s: %w", segName(uint32(seq)), err)
			}
		}
		q.nextSeq = uint32(seq) + 1
	}
	return q, nil
}

func segName(seq uint32) string { return fmt.Sprintf("seg-%08d.oq", seq) }

// Dir returns the queue directory.
func (q *Queue) Dir() string { return q.dir }

// Disposition is the outcome of enqueueing one notification.
type Disposition uint8

const (
	// Enqueued entered the queue as a pending item.
	Enqueued Disposition = iota
	// Suppressed was deduplicated inside its key's suppression window.
	Suppressed
)

// EnqueueStats summarizes one Enqueue call.
type EnqueueStats struct {
	Enqueued   int
	Suppressed int
}

// Enqueue appends the notifications as one atomic segment, deduplicating
// each against its key's suppression window (duplicates within the batch
// dedup too — enqueue is idempotent). The per-notification dispositions
// are returned in input order. Nothing is visible in memory until the
// segment has been durably committed.
func (q *Queue) Enqueue(ns ...Notification) ([]Disposition, EnqueueStats, error) {
	var stats EnqueueStats
	if len(ns) == 0 {
		return nil, stats, nil
	}
	for i, n := range ns {
		if n.DedupKey == "" {
			return nil, stats, fmt.Errorf("outqueue: notification %d has no dedup key", i)
		}
		if n.EventHour < 0 {
			return nil, stats, fmt.Errorf("outqueue: notification %d has negative event hour", i)
		}
	}

	q.mu.Lock()
	defer q.mu.Unlock()

	// Stage the records, tracking window state against a shadow copy so a
	// failed commit leaves the live state untouched.
	shadow := make(map[string]KeyState, len(ns))
	keyState := func(key string) KeyState {
		if ks, ok := shadow[key]; ok {
			return ks
		}
		if ks, ok := q.keys[key]; ok {
			return *ks
		}
		return KeyState{}
	}
	dispositions := make([]Disposition, len(ns))
	var recs []record
	nextID := uint64(len(q.items)) + 1
	for i, n := range ns {
		ks := keyState(n.DedupKey)
		if ks.Reports > 0 && n.EventHour < ks.LastHour+ks.WindowHours {
			dispositions[i] = Suppressed
			stats.Suppressed++
			ks.Suppressed++
			shadow[n.DedupKey] = ks
			recs = append(recs, record{kind: recSuppress, item: Item{
				ID: nextID,
				Notification: Notification{
					DedupKey:  n.DedupKey,
					EventHour: n.EventHour,
				},
				State: StateSuppressed,
			}})
			nextID++
			continue
		}
		dispositions[i] = Enqueued
		stats.Enqueued++
		ks.Reports++
		ks.LastHour = n.EventHour
		ks.WindowHours = ks.NextWindowHours()
		shadow[n.DedupKey] = ks
		recs = append(recs, record{kind: recEnqueue, item: Item{
			ID:           nextID,
			Notification: n,
			State:        StatePending,
		}})
		nextID++
	}

	if err := q.commit(recs); err != nil {
		return nil, EnqueueStats{}, err
	}
	return dispositions, stats, nil
}

// MarkSent durably transitions a pending item to sent.
func (q *Queue) MarkSent(id uint64, attempts int) error {
	return q.markState(id, StateSent, attempts, "")
}

// MarkFailed durably transitions a pending item to failed with the reason.
func (q *Queue) MarkFailed(id uint64, attempts int, detail string) error {
	return q.markState(id, StateFailed, attempts, detail)
}

func (q *Queue) markState(id uint64, s State, attempts int, detail string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id < 1 || id > uint64(len(q.items)) {
		return fmt.Errorf("outqueue: no item %d", id)
	}
	if cur := q.items[id-1].State; cur != StatePending {
		return fmt.Errorf("outqueue: item %d is %s, not pending", id, cur)
	}
	return q.commit([]record{{kind: recState, item: Item{
		ID: id, State: s, Attempts: attempts, Detail: detail,
	}}})
}

// commit encodes recs into the next segment, writes it atomically, and —
// only then — applies them to the in-memory state through the same replay
// path Open uses, so live state and restart state cannot diverge.
// Callers hold q.mu.
func (q *Queue) commit(recs []record) error {
	data := encodeSegment(q.nextSeq, recs)
	path := filepath.Join(q.dir, segName(q.nextSeq))
	if err := wal.WriteAtomic(q.fsys, path, data); err != nil {
		return err
	}
	q.nextSeq++
	for _, r := range recs {
		if err := q.apply(r); err != nil {
			// The segment is durable but contradicts live state: a Queue
			// invariant is broken. Surface loudly; this is a bug, not an
			// I/O condition.
			return fmt.Errorf("outqueue: committed segment rejected by apply: %w", err)
		}
	}
	return nil
}

// apply folds one replayed record into queue state. It is the single
// mutation path shared by live commits and Open replay; violations of the
// queue invariants (non-monotonic IDs, state transitions from terminal
// states, suppress records for unknown keys) are ErrBadFormat.
func (q *Queue) apply(r record) error {
	switch r.kind {
	case recEnqueue, recSuppress:
		if want := uint64(len(q.items)) + 1; r.item.ID != want {
			return badf("record ID %d out of order, want %d", r.item.ID, want)
		}
		if r.item.DedupKey == "" {
			return badf("record %d has empty dedup key", r.item.ID)
		}
		it := r.item // copy
		ks := q.keys[it.DedupKey]
		if ks == nil {
			ks = &KeyState{}
			q.keys[it.DedupKey] = ks
		}
		if r.kind == recSuppress {
			if ks.Reports == 0 {
				return badf("suppress record %d for key %q with no prior report", it.ID, it.DedupKey)
			}
			it.State = StateSuppressed
			ks.Suppressed++
		} else {
			it.State = StatePending
			ks.Reports++
			ks.LastHour = it.EventHour
			ks.WindowHours = ks.NextWindowHours()
		}
		q.items = append(q.items, &it)
		return nil
	case recState:
		if r.item.ID < 1 || r.item.ID > uint64(len(q.items)) {
			return badf("state record for unknown item %d", r.item.ID)
		}
		if r.item.State != StateSent && r.item.State != StateFailed {
			return badf("state record moves item %d to %s", r.item.ID, r.item.State)
		}
		it := q.items[r.item.ID-1]
		if it.State != StatePending {
			return badf("state record for item %d already %s", r.item.ID, it.State)
		}
		it.State = r.item.State
		it.Attempts = r.item.Attempts
		it.Detail = r.item.Detail
		return nil
	}
	return badf("unknown record kind %d", r.kind)
}

// allItems returns a copy of every queue item in ID order.
func (q *Queue) allItems() []Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Item, len(q.items))
	for i, it := range q.items {
		out[i] = *it
	}
	return out
}

// Pending returns copies of the items still awaiting delivery, in ID order.
func (q *Queue) Pending() []Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Item
	for _, it := range q.items {
		if it.State == StatePending {
			out = append(out, *it)
		}
	}
	return out
}

// Key returns the suppression state for a dedup key.
func (q *Queue) Key(key string) (KeyState, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ks, ok := q.keys[key]
	if !ok {
		return KeyState{}, false
	}
	return *ks, true
}

// Stats summarizes the queue.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{Items: len(q.items), Keys: len(q.keys), Segments: int(q.nextSeq) - 1}
	for _, it := range q.items {
		switch it.State {
		case StatePending:
			st.Pending++
		case StateSent:
			st.Sent++
		case StateFailed:
			st.Failed++
		case StateSuppressed:
			st.Suppressed++
		}
	}
	return st
}

// fingerprint returns a canonical encoding of the entire queue state —
// every item field plus every key's suppression window — so tests can
// assert that a kill-and-restart reconstructs byte-identical state.
func (q *Queue) fingerprint() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	var e wal.Enc
	e.U32(uint32(len(q.items)))
	for _, it := range q.items {
		e.U64(it.ID)
		e.U8(uint8(it.State))
		e.U32(uint32(it.Attempts))
		e.Str(it.Detail)
		e.Str(it.DedupKey)
		e.Str(it.Contact)
		e.Str(it.Tier)
		e.Str(it.Subject)
		e.Str(it.Body)
		e.U32(uint32(it.EventHour))
		e.U32(uint32(it.Devices))
		e.U64(it.Packets)
	}
	keys := make([]string, 0, len(q.keys))
	for k := range q.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		ks := q.keys[k]
		e.Str(k)
		e.U32(uint32(ks.Reports))
		e.U32(uint32(ks.Suppressed))
		e.U32(uint32(ks.LastHour))
		e.U32(uint32(ks.WindowHours))
	}
	return e.B
}

// ---- codec ----

// record is the decoded form of one segment record.
type record struct {
	kind uint8
	item Item
}

func encodeSegment(seq uint32, recs []record) []byte {
	var out wal.Enc
	out.Raw([]byte(magic))
	out.U8(Version)
	out.U8(0)
	out.U16(0)
	out.U32(seq)
	for _, r := range recs {
		var p wal.Enc
		switch r.kind {
		case recEnqueue:
			p.U64(r.item.ID)
			p.U32(uint32(r.item.EventHour))
			p.U32(uint32(r.item.Devices))
			p.U64(r.item.Packets)
			p.Str(r.item.DedupKey)
			p.Str(r.item.Contact)
			p.Str(r.item.Tier)
			p.Str(r.item.Subject)
			p.Str(r.item.Body)
		case recSuppress:
			p.U64(r.item.ID)
			p.U32(uint32(r.item.EventHour))
			p.Str(r.item.DedupKey)
		case recState:
			p.U64(r.item.ID)
			p.U8(uint8(r.item.State))
			p.U32(uint32(r.item.Attempts))
			p.Str(r.item.Detail)
		}
		out.B = wal.AppendFrame(out.B, r.kind, p.B)
	}
	return wal.Seal(out.B, headerLen)
}

// decodeSegment parses and fully validates one segment image. Every CRC,
// the footer count and digest, and the trailing-EOF rule are checked before
// any record is returned.
func decodeSegment(data []byte, wantSeq uint32) ([]record, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("outqueue: %w: short header", ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, badf("bad magic %q", data[:len(magic)])
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("outqueue: %w: short header", ErrTruncated)
	}
	version := data[4]
	if version == 0 || int(version) > Version {
		return nil, badf("unsupported version %d", version)
	}
	if data[5] != 0 || binary.LittleEndian.Uint16(data[6:]) != 0 {
		return nil, badf("reserved header bits set")
	}
	seq := binary.LittleEndian.Uint32(data[8:])
	if wantSeq != 0 && seq != wantSeq {
		return nil, badf("segment claims seq %d, file name says %d", seq, wantSeq)
	}
	frames, rest, err := wal.Unseal(data, headerLen, recSuppress)
	if err != nil {
		return nil, fmt.Errorf("outqueue: %w", err)
	}
	if len(rest) != 0 {
		return nil, badf("%d trailing bytes after footer", len(rest))
	}
	var recs []record
	for _, f := range frames {
		r, err := parseRecord(f.Tag, f.Payload)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func parseRecord(kind uint8, payload []byte) (record, error) {
	d := &wal.Dec{B: payload}
	r := record{kind: kind}
	switch kind {
	case recEnqueue:
		r.item.ID = d.U64()
		r.item.EventHour = int(d.U32())
		r.item.Devices = int(d.U32())
		r.item.Packets = d.U64()
		r.item.DedupKey = d.Str()
		r.item.Contact = d.Str()
		r.item.Tier = d.Str()
		r.item.Subject = d.Str()
		r.item.Body = d.Str()
	case recSuppress:
		r.item.ID = d.U64()
		r.item.EventHour = int(d.U32())
		r.item.DedupKey = d.Str()
	case recState:
		r.item.ID = d.U64()
		r.item.State = State(d.U8())
		r.item.Attempts = int(d.U32())
		r.item.Detail = d.Str()
	}
	return r, d.Finish("record")
}
