// Package pipeline is the staged execution engine the paper's methodology
// maps onto: ingest flowtuples → infer compromised devices → characterize
// traffic → investigate maliciousness → report. Each step is a Stage — a
// named, context-aware unit of work over a shared State — and an Engine
// runs a stage list sequentially, instrumenting every stage (wall time,
// records in/out, retries, quarantined hours, error class) into a
// JSON-serializable Report.
//
// The engine is deliberately small: composition (Sequence) covers the
// shapes the tools need, cancellation is first-class
// (a stage that honors its ctx makes the whole pipeline cancellable), and
// observability is free — every cmd that drives an Engine can dump the
// Report with -stage-report.
package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"sync"
	"time"
)

// Stage is one named unit of pipeline work. Run must honor ctx: a stage
// that can block or loop checks ctx.Err() at its natural boundaries
// (between hour files, between record batches) and returns the context's
// error promptly when cancelled, leaving any pooled or shared state
// reusable.
type Stage interface {
	Name() string
	Run(ctx context.Context, st *State) error
}

// State is the keyed blackboard stages communicate through. Most stages
// close over typed values instead; State exists for loosely coupled
// composition (a cmd appending a custom stage after library stages) and is
// safe for concurrent use.
type State struct {
	mu   sync.RWMutex
	vals map[string]any
}

// NewState returns an empty state.
func NewState() *State { return &State{vals: make(map[string]any)} }

// Put stores a value under key.
func (s *State) Put(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[key] = v
}

// Get returns the value stored under key.
func (s *State) Get(key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vals[key]
	return v, ok
}

type funcStage struct {
	name string
	fn   func(ctx context.Context, st *State) error
}

// Func adapts a function to the Stage interface.
func Func(name string, fn func(ctx context.Context, st *State) error) Stage {
	return funcStage{name: name, fn: fn}
}

func (f funcStage) Name() string                             { return f.name }
func (f funcStage) Run(ctx context.Context, st *State) error { return f.fn(ctx, st) }

// Stage status values recorded in StageMetrics.
const (
	StatusOK      = "ok"
	StatusFailed  = "failed"
	StatusSkipped = "skipped"
)

// ErrSkipped, returned by a stage's Run, marks the stage skipped without
// failing the pipeline: the engine records StatusSkipped and continues with
// the next stage. A stage that decides at run time it has nothing to do
// (e.g. a snapshot loader with no store configured, or a verify pass made
// redundant by a loaded store) returns ErrSkipped — optionally wrapped with
// context — and sets Meter(ctx).Note to say why, so the decision is
// surfaced in the report rather than silently absorbed.
var ErrSkipped = errors.New("pipeline: stage skipped")

// StageMetrics is one stage's observability record. Stages fill the
// workload fields through Meter; the engine fills timing and error fields.
type StageMetrics struct {
	Name   string  `json:"name"`
	Status string  `json:"status"`
	WallMS float64 `json:"wallMs"`
	// RecordsIn / RecordsOut count the stage's input and output units in
	// whatever grain the stage documents (flowtuple records, devices,
	// bundles); zero values are omitted.
	RecordsIn  uint64 `json:"recordsIn,omitempty"`
	RecordsOut uint64 `json:"recordsOut,omitempty"`
	// Retries counts retried attempts (iotwatch records its collector's
	// ingest-loop restarts here).
	Retries int `json:"retries,omitempty"`
	// QuarantinedHours counts hour files abandoned under a lenient fault
	// policy while this stage ran.
	QuarantinedHours int `json:"quarantinedHours,omitempty"`
	// ErrorClass buckets the failure ("canceled", "deadline", "missing",
	// "retryable", "corrupt", "internal"); stages may pre-set it with
	// domain knowledge, otherwise ErrorClass(err) fills it.
	ErrorClass string `json:"errorClass,omitempty"`
	Error      string `json:"error,omitempty"`
	// Note is free-form stage-set context — e.g. which artifact a loader
	// chose, or why a stage skipped itself — surfaced verbatim in the
	// report.
	Note string `json:"note,omitempty"`
}

// Report is the JSON-serializable run record of one Engine.Run: one
// StageMetrics per stage (including nested Sequence children), in start
// order.
type Report struct {
	Pipeline  string          `json:"pipeline"`
	StartedAt time.Time       `json:"startedAt"`
	WallMS    float64         `json:"wallMs"`
	Stages    []*StageMetrics `json:"stages"`
	Error     string          `json:"error,omitempty"`

	mu sync.Mutex
}

func (r *Report) add(m *StageMetrics) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.Stages = append(r.Stages, m)
	r.mu.Unlock()
}

// Stage returns the first metrics entry with the given name, or nil.
func (r *Report) Stage(name string) *StageMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.Stages {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// EmitReport writes the report to the destination named by a -stage-report
// flag value: "" is a no-op, "-" writes to stderr, anything else
// creates/truncates that file. A nil report with a non-empty path is an
// error (the run never produced one).
func EmitReport(rep *Report, path string) error {
	if path == "" {
		return nil
	}
	if rep == nil {
		return fmt.Errorf("pipeline: no stage report to emit")
	}
	if path == "-" {
		return rep.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type ctxKey int

const (
	reportKey ctxKey = iota
	meterKey
)

func reportFrom(ctx context.Context) *Report {
	r, _ := ctx.Value(reportKey).(*Report)
	return r
}

// Meter returns the running stage's metrics record so layers below can
// report workload counts without depending on the engine. Outside an
// engine-run stage it returns a detached record that is safe to mutate
// and simply discarded.
func Meter(ctx context.Context) *StageMetrics {
	if m, ok := ctx.Value(meterKey).(*StageMetrics); ok {
		return m
	}
	return &StageMetrics{}
}

// Attach registers and returns an extra named metrics record in the
// running stage's report — the hook a stage uses to surface per-unit
// observability finer than its own row (e.g. the correlate stage attaching
// one record per shard). Records appear in the report in Attach order,
// after the rows already registered. Outside an engine run it returns a
// detached record that is safe to mutate and simply discarded, so library
// code can Attach unconditionally.
func Attach(ctx context.Context, name string) *StageMetrics {
	m := &StageMetrics{Name: name, Status: StatusOK}
	if r := reportFrom(ctx); r != nil {
		r.add(m)
	}
	return m
}

// ErrorClass buckets an error for the report: context cancellation and
// deadlines are distinguished from missing inputs and everything else, and
// errors may override the bucket by implementing ErrorClass() string.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, fs.ErrNotExist):
		return "missing"
	}
	var classed interface{ ErrorClass() string }
	if errors.As(err, &classed) {
		return classed.ErrorClass()
	}
	return "internal"
}

// instrument registers a metrics record for the stage in the run's report
// and executes it, filling timing, status, and error fields.
func instrument(ctx context.Context, st *State, stage Stage) error {
	m := &StageMetrics{Name: stage.Name()}
	reportFrom(ctx).add(m)
	ctx = context.WithValue(ctx, meterKey, m)
	start := time.Now()
	err := stage.Run(ctx, st)
	m.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if errors.Is(err, ErrSkipped) {
		m.Status = StatusSkipped
		return nil
	}
	if err != nil {
		m.Status = StatusFailed
		m.Error = err.Error()
		if m.ErrorClass == "" {
			m.ErrorClass = ErrorClass(err)
		}
		return err
	}
	m.Status = StatusOK
	return nil
}

// skip records a stage as skipped (a prior stage failed or the run was
// cancelled before it started).
func skip(ctx context.Context, stage Stage) {
	reportFrom(ctx).add(&StageMetrics{Name: stage.Name(), Status: StatusSkipped})
}

// Engine runs a named list of stages sequentially.
type Engine struct {
	name   string
	stages []Stage
}

// New returns an engine over the stages.
func New(name string, stages ...Stage) *Engine {
	return &Engine{name: name, stages: stages}
}

// Run executes the stages in order against st (nil allocates a fresh
// State), stopping at the first failure; later stages are recorded as
// skipped. The Report is returned even when Run fails — it describes how
// far the pipeline got and why it stopped.
func (e *Engine) Run(ctx context.Context, st *State) (*Report, error) {
	if st == nil {
		st = NewState()
	}
	rep := &Report{Pipeline: e.name, StartedAt: time.Now().UTC()}
	ctx = context.WithValue(ctx, reportKey, rep)
	start := time.Now()
	err := runSequence(ctx, st, e.stages)
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		rep.Error = err.Error()
	}
	return rep, err
}

// runSequence is the shared sequential executor behind Engine.Run and
// Sequence: first error stops the run, remaining stages are marked
// skipped, and a context already cancelled before a stage starts skips it
// and surfaces ctx.Err().
func runSequence(ctx context.Context, st *State, stages []Stage) error {
	var firstErr error
	for _, stage := range stages {
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			skip(ctx, stage)
			continue
		}
		if err := instrument(ctx, st, stage); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

type seqStage struct {
	name   string
	stages []Stage
}

// Sequence groups stages into one composite stage that runs its children
// in order. Children are instrumented individually in the enclosing run's
// report.
func Sequence(name string, stages ...Stage) Stage {
	return &seqStage{name: name, stages: stages}
}

func (s *seqStage) Name() string { return s.name }
func (s *seqStage) Run(ctx context.Context, st *State) error {
	return runSequence(ctx, st, s.stages)
}

// RetryPolicy bounds retry-with-backoff behavior for retryable failures:
// the streaming collector's supervisor restarts a crashed ingest loop under
// it, and the outbound queue's drain retries a failed delivery.
type RetryPolicy struct {
	// MaxRetries is the retry budget after the initial attempt.
	MaxRetries int
	// BaseBackoff is the delay before the first retry; it doubles each
	// further retry.
	BaseBackoff time.Duration
	// Retryable classifies errors; nil retries nothing.
	Retryable func(error) bool
}

// Delay returns the deterministic backoff before retry n (1-based):
// BaseBackoff doubling per attempt. Prefer JitteredDelay when several
// retriers can share a failure — identical schedules synchronize them
// into retry storms against whatever just recovered.
func (p RetryPolicy) Delay(retry int) time.Duration {
	if retry < 1 {
		retry = 1
	}
	if retry > 32 {
		retry = 32
	}
	return p.BaseBackoff << (retry - 1)
}

// JitteredDelay returns the backoff before retry n with equal-jitter
// spreading: half of Delay(n) held deterministic so backoff still grows
// exponentially, the other half drawn uniformly at random. Two policies
// with the same base schedule therefore diverge, which is exactly the
// point — concurrent retriers that failed together must not all come
// back at the same instant.
func (p RetryPolicy) JitteredDelay(retry int) time.Duration {
	d := p.Delay(retry)
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(d-half)+1))
}

// Exhausted reports whether the budget allows no further retry after the
// given number of retries already spent.
func (p RetryPolicy) Exhausted(retries int) bool { return retries >= p.MaxRetries }

// ShouldRetry reports whether err warrants another attempt after retries
// already spent. Context cancellation is never retried.
func (p RetryPolicy) ShouldRetry(err error, retries int) bool {
	if err == nil || p.Retryable == nil || p.Exhausted(retries) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return p.Retryable(err)
}

// Sleep waits for d or until ctx is done, returning ctx's error in the
// latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
