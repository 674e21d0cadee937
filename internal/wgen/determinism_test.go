package wgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"iotscope/internal/flowtuple"
)

// hashDir hashes every file in a dataset directory, in name order.
func hashDir(t *testing.T, dir string) [32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		io.WriteString(h, e.Name())
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// The headline reproducibility claim: identical (scale, seed) produce
// byte-identical datasets, including the gzip-compressed hour files.
func TestRunByteIdentical(t *testing.T) {
	render := func() [32]byte {
		sc := Default(0.002, 1234)
		sc.Hours = 8
		g, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := g.Run(context.Background(), dir); err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir)
	}
	a, b := render(), render()
	if !bytes.Equal(a[:], b[:]) {
		t.Fatal("identical seeds produced different datasets")
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	render := func(seed uint64) [32]byte {
		sc := Default(0.002, seed)
		sc.Hours = 4
		g, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := g.Run(context.Background(), dir); err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir)
	}
	if a, b := render(10), render(11); bytes.Equal(a[:], b[:]) {
		t.Fatal("different seeds produced identical datasets")
	}
}

// Truth is stable across generator constructions with the same scenario.
func TestTruthDeterministic(t *testing.T) {
	sc := Default(0.003, 55)
	a, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Truth(), b.Truth()
	if len(ta.Compromised) != len(tb.Compromised) {
		t.Fatal("compromised counts differ")
	}
	for i := range ta.Compromised {
		if ta.Compromised[i] != tb.Compromised[i] {
			t.Fatalf("compromised[%d] differs", i)
		}
	}
	for id, h := range ta.OnsetHour {
		if tb.OnsetHour[id] != h {
			t.Fatalf("onset of %d differs", id)
		}
	}
	for name, id := range ta.EventVictims {
		if tb.EventVictims[name] != id {
			t.Fatalf("event victim %q differs", name)
		}
	}
	for id, w := range ta.ActivityWeight {
		if tb.ActivityWeight[id] != w {
			t.Fatalf("weight of %d differs", id)
		}
	}
}

// tmpLeftovers lists the in-progress files a render left in dir; a
// directory planted by a test to make an hour unwritable is not one.
func tmpLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), flowtuple.TmpSuffix) {
			left = append(left, e.Name())
		}
	}
	return left
}

// squat makes hour unwritable: a directory sits where its temp file goes.
func squat(t *testing.T, dir string, hour int) {
	t.Helper()
	if err := os.Mkdir(flowtuple.HourPath(dir, hour)+flowtuple.TmpSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
}

// Hours are rendered on GOMAXPROCS workers, and the stats are the workers'
// summed: the files and the stats must not depend on how many there were.
func TestRunIndependentOfWorkers(t *testing.T) {
	sc := Default(0.002, 99)
	sc.Hours = 12
	g, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	render := func(procs int) ([32]byte, RunStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		stats, err := g.Run(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir), stats
	}
	want, wantStats := render(1)
	for _, procs := range []int{2, 5, 16} { // 16 > Hours: the worker count is capped
		if got, stats := render(procs); got != want || stats != wantStats {
			t.Errorf("GOMAXPROCS=%d: same bytes %v; stats %+v, want %+v", procs, got == want, stats, wantStats)
		}
	}
}

// An unwritable hour in the middle fails the render with that hour's error
// — the lowest such hour's, whichever worker met which first, because that
// is where a serial render stops — and nothing half-written survives.
func TestRunReturnsLowestFailingHour(t *testing.T) {
	sc := Default(0.002, 7)
	sc.Hours = 12
	g, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := t.TempDir()
			squat(t, dir, 5)
			squat(t, dir, 3)
			stats, err := g.Run(context.Background(), dir)
			if err == nil || !strings.Contains(err.Error(), "hour-003") {
				t.Fatalf("GOMAXPROCS=%d: error %v, want hour 3's", procs, err)
			}
			if stats != (RunStats{}) {
				t.Errorf("GOMAXPROCS=%d: failed render reports %+v", procs, stats)
			}
			if left := tmpLeftovers(t, dir); len(left) > 0 {
				t.Errorf("GOMAXPROCS=%d: left %v", procs, left)
			}
			hours, err := flowtuple.DatasetHours(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hours {
				if h == 3 || h == 5 {
					t.Errorf("GOMAXPROCS=%d: unwritable hour %d exists", procs, h)
				}
				if _, err := flowtuple.Verify(flowtuple.HourPath(dir, h)); err != nil {
					t.Errorf("GOMAXPROCS=%d: %v", procs, err)
				}
			}
		}()
	}
}

// Cancellation stops the render the way a failed hour does: ctx.Err() comes
// back, no stats, and every file in dir is a complete hour. Cancelled before
// the start nothing is written at all; cancelled when the first hour lands,
// the render stops early (or, on a fast machine, has already finished).
func TestRunCancelled(t *testing.T) {
	sc := Default(0.002, 8)
	sc.Hours = 24
	g, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	if stats, err := g.Run(ctx, dir); !errors.Is(err, context.Canceled) || stats != (RunStats{}) {
		t.Fatalf("cancelled before the start: %+v, %v", stats, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("cancelled before the start, yet wrote %d files", len(entries))
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ctx.Err() == nil {
			if hours, _ := flowtuple.DatasetHours(dir); len(hours) > 0 {
				cancel()
			}
			runtime.Gosched()
		}
	}()
	stats, err := g.Run(ctx, dir)
	cancel()
	<-watched
	hours, lerr := flowtuple.DatasetHours(dir)
	if lerr != nil {
		t.Fatal(lerr)
	}
	switch {
	case err == nil:
		if len(hours) != sc.Hours || stats.Collector.HoursWritten != sc.Hours {
			t.Fatalf("render reported success with %d of %d hours", len(hours), sc.Hours)
		}
	case !errors.Is(err, context.Canceled):
		t.Fatalf("cancelled mid-render: %v", err)
	case stats != (RunStats{}) || len(hours) == sc.Hours:
		t.Fatalf("cancelled render: stats %+v, %d hours on disk", stats, len(hours))
	}
	if left := tmpLeftovers(t, dir); len(left) > 0 {
		t.Errorf("left %v", left)
	}
	for _, h := range hours {
		if _, err := flowtuple.Verify(flowtuple.HourPath(dir, h)); err != nil {
			t.Error(err)
		}
	}
}
