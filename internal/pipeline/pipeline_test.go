package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestEngineRunsStagesInOrder(t *testing.T) {
	var order []string
	eng := New("test",
		Func("a", func(ctx context.Context, st *State) error {
			order = append(order, "a")
			st.Put("x", 1)
			return nil
		}),
		Func("b", func(ctx context.Context, st *State) error {
			order = append(order, "b")
			v, ok := st.Get("x")
			if !ok || v.(int) != 1 {
				t.Errorf("state not threaded: %v %v", v, ok)
			}
			return nil
		}),
	)
	rep, err := eng.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(order, ","); got != "a,b" {
		t.Fatalf("order = %q, want a,b", got)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(rep.Stages))
	}
	for _, m := range rep.Stages {
		if m.Status != StatusOK {
			t.Errorf("stage %s status %q, want ok", m.Name, m.Status)
		}
		if m.WallMS < 0 {
			t.Errorf("stage %s negative wall time", m.Name)
		}
	}
	if rep.Pipeline != "test" || rep.Error != "" {
		t.Fatalf("report header wrong: %+v", rep)
	}
}

func TestEngineSkipsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	eng := New("test",
		Func("ok", func(ctx context.Context, st *State) error { return nil }),
		Func("fail", func(ctx context.Context, st *State) error { return boom }),
		Func("after", func(ctx context.Context, st *State) error { ran = true; return nil }),
	)
	rep, err := eng.Run(context.Background(), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran {
		t.Fatal("stage after failure ran")
	}
	want := map[string]string{"ok": StatusOK, "fail": StatusFailed, "after": StatusSkipped}
	for name, status := range want {
		m := rep.Stage(name)
		if m == nil || m.Status != status {
			t.Errorf("stage %s = %+v, want status %s", name, m, status)
		}
	}
	if rep.Stage("fail").ErrorClass != "internal" {
		t.Errorf("fail class = %q, want internal", rep.Stage("fail").ErrorClass)
	}
	if rep.Error != "boom" {
		t.Errorf("report error = %q", rep.Error)
	}
}

func TestEnginePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	eng := New("test", Func("a", func(ctx context.Context, st *State) error { ran = true; return nil }))
	rep, err := eng.Run(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if ran {
		t.Fatal("stage ran under cancelled context")
	}
	if m := rep.Stage("a"); m == nil || m.Status != StatusSkipped {
		t.Fatalf("stage a = %+v, want skipped", m)
	}
}

func TestMeterRecordsWorkload(t *testing.T) {
	eng := New("test", Func("work", func(ctx context.Context, st *State) error {
		m := Meter(ctx)
		m.RecordsIn = 100
		m.RecordsOut = 40
		m.QuarantinedHours = 2
		return nil
	}))
	rep, err := eng.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Stage("work")
	if m.RecordsIn != 100 || m.RecordsOut != 40 || m.QuarantinedHours != 2 {
		t.Fatalf("metrics not recorded: %+v", m)
	}
}

func TestMeterOutsideEngineIsDetached(t *testing.T) {
	m := Meter(context.Background())
	if m == nil {
		t.Fatal("nil meter")
	}
	m.RecordsIn = 5 // must not panic; separate instances
	if Meter(context.Background()).RecordsIn != 0 {
		t.Fatal("detached meters share state")
	}
}

func TestAttachRegistersExtraRecords(t *testing.T) {
	eng := New("test", Func("correlate", func(ctx context.Context, st *State) error {
		for i := 0; i < 3; i++ {
			m := Attach(ctx, fmt.Sprintf("correlate/shard-%d", i))
			m.RecordsIn = uint64(10 * (i + 1))
			m.RecordsOut = uint64(i + 1)
		}
		return nil
	}))
	rep, err := eng.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The stage's own row plus the three attached records.
	if len(rep.Stages) != 4 {
		t.Fatalf("report has %d rows, want 4: %+v", len(rep.Stages), rep.Stages)
	}
	for i := 0; i < 3; i++ {
		m := rep.Stage(fmt.Sprintf("correlate/shard-%d", i))
		if m == nil {
			t.Fatalf("shard %d record missing", i)
		}
		if m.Status != StatusOK || m.RecordsIn != uint64(10*(i+1)) || m.RecordsOut != uint64(i+1) {
			t.Fatalf("shard %d record wrong: %+v", i, m)
		}
	}
}

func TestAttachOutsideEngineIsDetached(t *testing.T) {
	m := Attach(context.Background(), "orphan")
	if m == nil {
		t.Fatal("nil record")
	}
	m.RecordsIn = 7 // must not panic, must not share state
	if Attach(context.Background(), "orphan").RecordsIn != 0 {
		t.Fatal("detached records share state")
	}
}

func TestSequenceCompositeRegistersChildren(t *testing.T) {
	eng := New("test", Sequence("outer",
		Func("c1", func(ctx context.Context, st *State) error { return nil }),
		Func("c2", func(ctx context.Context, st *State) error { return nil }),
	))
	rep, err := eng.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range rep.Stages {
		names = append(names, m.Name)
	}
	if got := strings.Join(names, ","); got != "outer,c1,c2" {
		t.Fatalf("stages = %q, want outer,c1,c2", got)
	}
}

type classedErr struct{}

func (classedErr) Error() string      { return "bad frame" }
func (classedErr) ErrorClass() string { return "corrupt" }

func TestErrorClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "deadline"},
		{fmt.Errorf("wrap: %w", os.ErrNotExist), "missing"},
		{classedErr{}, "corrupt"},
		{fmt.Errorf("wrap: %w", classedErr{}), "corrupt"},
		{errors.New("plain"), "internal"},
	}
	for _, c := range cases {
		if got := ErrorClass(c.err); got != c.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestStagePresetErrorClassPreserved(t *testing.T) {
	eng := New("test", Func("a", func(ctx context.Context, st *State) error {
		Meter(ctx).ErrorClass = "retryable"
		return errors.New("ends early")
	}))
	rep, _ := eng.Run(context.Background(), nil)
	if rep.Stage("a").ErrorClass != "retryable" {
		t.Fatalf("class = %q, want retryable", rep.Stage("a").ErrorClass)
	}
}

func TestRetryPolicy(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, BaseBackoff: 10 * time.Millisecond, Retryable: func(err error) bool {
		return strings.Contains(err.Error(), "again")
	}}
	if d := p.Delay(1); d != 10*time.Millisecond {
		t.Errorf("Delay(1) = %v", d)
	}
	if d := p.Delay(3); d != 40*time.Millisecond {
		t.Errorf("Delay(3) = %v", d)
	}
	if p.ShouldRetry(errors.New("fatal"), 0) {
		t.Error("non-retryable retried")
	}
	if !p.ShouldRetry(errors.New("try again"), 2) {
		t.Error("retryable under budget not retried")
	}
	if p.ShouldRetry(errors.New("try again"), 3) {
		t.Error("exhausted budget retried")
	}
	if p.ShouldRetry(context.Canceled, 0) {
		t.Error("cancellation retried")
	}
	if !p.Exhausted(3) || p.Exhausted(2) {
		t.Error("Exhausted wrong")
	}
}

func TestSleepCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Sleep(ctx, 10*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep did not wake on cancel")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	eng := New("roundtrip",
		Func("ok", func(ctx context.Context, st *State) error {
			Meter(ctx).RecordsIn = 7
			return nil
		}),
		Func("fail", func(ctx context.Context, st *State) error { return context.Canceled }),
	)
	rep, _ := eng.Run(context.Background(), nil)
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Pipeline string          `json:"pipeline"`
		Stages   []*StageMetrics `json:"stages"`
		Error    string          `json:"error"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Pipeline != "roundtrip" || len(decoded.Stages) != 2 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Stages[0].RecordsIn != 7 {
		t.Fatalf("recordsIn lost: %+v", decoded.Stages[0])
	}
	if decoded.Stages[1].ErrorClass != "canceled" {
		t.Fatalf("errorClass lost: %+v", decoded.Stages[1])
	}
	// omitempty: the ok stage's JSON must not carry zero workload fields.
	if strings.Contains(buf.String(), `"retries":0`) {
		t.Fatal("zero retries not omitted")
	}
}

func TestEmitReport(t *testing.T) {
	rep, _ := New("emit", Func("a", func(ctx context.Context, st *State) error { return nil })).Run(context.Background(), nil)

	if err := EmitReport(rep, ""); err != nil {
		t.Fatalf("empty path: %v", err)
	}
	if err := EmitReport(nil, "x.json"); err == nil {
		t.Fatal("nil report with path should error")
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := EmitReport(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("file not valid JSON: %v", err)
	}
	if out.Pipeline != "emit" {
		t.Fatalf("pipeline = %q", out.Pipeline)
	}
}

func TestErrSkippedStage(t *testing.T) {
	ran := false
	eng := New("test",
		Func("opt-out", func(ctx context.Context, st *State) error {
			Meter(ctx).Note = "nothing to do"
			return ErrSkipped
		}),
		Func("wrapped", func(ctx context.Context, st *State) error {
			return fmt.Errorf("no store configured: %w", ErrSkipped)
		}),
		Func("after", func(ctx context.Context, st *State) error {
			ran = true
			return nil
		}),
	)
	rep, err := eng.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("skipped stage failed the pipeline: %v", err)
	}
	if !ran {
		t.Fatal("stage after a skip did not run")
	}
	for _, name := range []string{"opt-out", "wrapped"} {
		m := rep.Stage(name)
		if m == nil || m.Status != StatusSkipped {
			t.Fatalf("stage %q = %+v, want skipped", name, m)
		}
		if m.Error != "" {
			t.Fatalf("skipped stage %q recorded error %q", name, m.Error)
		}
	}
	if rep.Stage("opt-out").Note != "nothing to do" {
		t.Fatalf("note lost: %+v", rep.Stage("opt-out"))
	}
}
