// Package resilience provides the admission-control building blocks for
// the long-running sharing API: a concurrency-limit semaphore that sheds
// load with 503 + Retry-After when the server is saturated, a per-key
// token-bucket rate limiter that rejects with 429 + Retry-After, and a
// middleware that propagates a per-request deadline through the request
// context. The paper's Discussion commits to operating the API as an
// always-on community service; these guards keep slow or abusive clients
// from taking it down.
package resilience

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Limiter is a concurrency-cap semaphore with load shedding. A request
// that cannot acquire a slot immediately is shed rather than queued:
// under overload, fast rejection with a Retry-After hint beats a convoy
// of blocked goroutines.
type Limiter struct {
	slots      chan struct{}
	retryAfter time.Duration

	admitted atomic.Uint64
	shed     atomic.Uint64
}

// NewLimiter caps concurrent in-flight requests at max (which must be
// positive). Shed responses advertise retryAfter (rounded up to whole
// seconds, minimum 1) in the Retry-After header.
func NewLimiter(max int, retryAfter time.Duration) (*Limiter, error) {
	if max <= 0 {
		return nil, fmt.Errorf("resilience: limiter max %d must be positive", max)
	}
	return &Limiter{
		slots:      make(chan struct{}, max),
		retryAfter: retryAfter,
	}, nil
}

// Acquire attempts to take a slot without blocking.
func (l *Limiter) Acquire() bool {
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		return true
	default:
		l.shed.Add(1)
		return false
	}
}

// Release returns a slot taken by a successful Acquire.
func (l *Limiter) Release() { <-l.slots }

// LimiterStats is a point-in-time snapshot of admission counters.
type LimiterStats struct {
	InFlight int    `json:"inFlight"`
	Capacity int    `json:"capacity"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

// Stats snapshots the counters.
func (l *Limiter) Stats() LimiterStats {
	return LimiterStats{
		InFlight: len(l.slots),
		Capacity: cap(l.slots),
		Admitted: l.admitted.Load(),
		Shed:     l.shed.Load(),
	}
}

// Middleware wraps next with the concurrency cap. Requests whose path is
// in exempt (exact match) bypass the limiter — health probes must stay
// answerable precisely when the server is saturated.
func (l *Limiter) Middleware(next http.Handler, exempt ...string) http.Handler {
	skip := make(map[string]bool, len(exempt))
	for _, p := range exempt {
		skip[p] = true
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if skip[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		if !l.Acquire() {
			ShedResponse(w, http.StatusServiceUnavailable, l.retryAfter,
				"server at concurrency capacity")
			return
		}
		defer l.Release()
		next.ServeHTTP(w, r)
	})
}

// RateLimiter applies an independent token bucket per key (typically one
// per API token), refilled at rate tokens/second up to burst.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time

	allowed atomic.Uint64
	denied  atomic.Uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the per-key state so an attacker cycling keys cannot
// grow the map without bound; idle buckets are pruned past the cap.
const maxBuckets = 4096

// NewRateLimiter builds a limiter granting rate requests/second with the
// given burst ceiling per key.
func NewRateLimiter(rate float64, burst int) (*RateLimiter, error) {
	if rate <= 0 || burst < 1 {
		return nil, fmt.Errorf("resilience: rate %v and burst %d must be positive", rate, burst)
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}, nil
}

// SetClock replaces the time source (tests).
func (rl *RateLimiter) SetClock(now func() time.Time) {
	rl.mu.Lock()
	rl.now = now
	rl.mu.Unlock()
}

// Allow reports whether one request for key may proceed now. When denied,
// retryAfter estimates how long until a token accrues.
func (rl *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= maxBuckets {
			rl.prune(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * rl.rate
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		rl.allowed.Add(1)
		return true, 0
	}
	rl.denied.Add(1)
	return false, time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
}

// RateStats is a point-in-time snapshot of the per-key rate limiter.
type RateStats struct {
	Keys    int    `json:"keys"`
	Allowed uint64 `json:"allowed"`
	Denied  uint64 `json:"denied"`
}

// Stats snapshots the counters. Allowed/Denied count Allow decisions
// (including those made on behalf of Wait).
func (rl *RateLimiter) Stats() RateStats {
	rl.mu.Lock()
	keys := len(rl.buckets)
	rl.mu.Unlock()
	return RateStats{Keys: keys, Allowed: rl.allowed.Load(), Denied: rl.denied.Load()}
}

// Wait blocks until a token for key is available or the context is done.
// It is the batch-side counterpart of Allow: HTTP handlers shed load, but a
// queue drain would rather pace itself than drop work. A context that is
// already done never consumes a token — the ctx check precedes every
// Allow, so cancellation cannot race a grant into a token the caller will
// never use.
func (rl *RateLimiter) Wait(ctx context.Context, key string) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ok, retryAfter := rl.Allow(key)
		if ok {
			return nil
		}
		t := time.NewTimer(retryAfter)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// prune drops buckets idle long enough to have refilled completely — they
// carry no state a fresh bucket would not.
func (rl *RateLimiter) prune(now time.Time) {
	full := time.Duration(rl.burst / rl.rate * float64(time.Second))
	for k, b := range rl.buckets {
		if now.Sub(b.last) >= full {
			delete(rl.buckets, k)
		}
	}
}

// WithTimeout propagates a per-request deadline: next sees a request whose
// context is cancelled after d, so downstream work holding the context can
// abort instead of running past the client's patience.
func WithTimeout(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ShedResponse writes an admission-control rejection: the Retry-After
// header (whole seconds, minimum 1) plus a small JSON error body.
func ShedResponse(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	secs := int((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", msg)
}
