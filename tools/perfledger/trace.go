package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // 0 = a root
	Sample int    `json:"sample"` // the round the span belongs to
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer times calls without recording them, so the untraced run shares the
// code paths.
type tracer struct {
	origin time.Time
	sample int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// time runs fn inside a span under parent (0 for a root) and returns how
// long it took. fn receives the span's id to parent its own calls with.
func (t *tracer) time(name string, parent int, fn func(id int) error) (time.Duration, error) {
	if t == nil {
		t0 := time.Now()
		err := fn(0)
		return time.Since(t0), err
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Sample: t.sample})
	id := len(t.spans)
	t.spans[id-1].Start = time.Since(t.origin).Nanoseconds()
	err := fn(id)
	s := &t.spans[id-1]
	s.End = time.Since(t.origin).Nanoseconds()
	return time.Duration(s.End - s.Start), err
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"totalS"`
	SelfS  float64 `json:"selfS"` // total minus the part child spans cover
}

// selfTimes folds the spans into per-name totals. A layer's self time is its
// spans' duration minus their direct children's.
func (t *tracer) selfTimes() []selfRow {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Calls++
		r.TotalS += float64(d) / 1e9
		r.SelfS += float64(d-children[s.ID]) / 1e9
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// write stores the spans and the self-time table at path.
func (t *tracer) write(path string, stamp map[string]any) error {
	data, err := json.MarshalIndent(struct {
		Stamp map[string]any `json:"stamp"`
		Self  []selfRow      `json:"selfTimes"`
		Spans []span         `json:"spans"`
	}{stamp, t.selfTimes(), t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "\n%-34s %6s %11s %11s   (raw seconds, all samples)\n", "span", "calls", "total_s", "self_s")
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "%-34s %6d %11.4f %11.4f\n", r.Name, r.Calls, r.TotalS, r.SelfS)
	}
}
