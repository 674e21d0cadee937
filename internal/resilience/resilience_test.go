package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestLimiterValidation(t *testing.T) {
	if _, err := NewLimiter(0, time.Second); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewRateLimiter(0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewRateLimiter(1, 0); err == nil {
		t.Fatal("zero burst accepted")
	}
}

func TestLimiterAcquireRelease(t *testing.T) {
	l, err := NewLimiter(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Acquire() || !l.Acquire() {
		t.Fatal("slots not granted")
	}
	if l.Acquire() {
		t.Fatal("over-capacity acquire granted")
	}
	if len(l.slots) != 2 {
		t.Fatalf("inflight %d", len(l.slots))
	}
	l.Release()
	if !l.Acquire() {
		t.Fatal("released slot not reusable")
	}
	st := l.Stats()
	if st.Admitted != 3 || st.Shed != 1 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLimiterMiddlewareShedsWith503(t *testing.T) {
	l, err := NewLimiter(1, 7*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	h := l.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Only the workload path stalls; the exempt health path must
		// answer instantly even while the workload pins the only slot.
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}), "/healthz")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/x", nil))
	}()
	<-started

	// Slot held: the next request sheds with 503 + Retry-After.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "7" {
		t.Fatalf("Retry-After %q", rec.Header().Get("Retry-After"))
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("shed body %q (%v)", rec.Body.String(), err)
	}

	// Exempt paths bypass the cap even while saturated.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code == http.StatusServiceUnavailable {
		t.Fatal("exempt path shed")
	}

	close(release)
	wg.Wait()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/x", nil))
	if rec.Code == http.StatusServiceUnavailable {
		t.Fatal("shed after slot freed")
	}
}

func TestRateLimiterBucketSemantics(t *testing.T) {
	rl, err := NewRateLimiter(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	rl.SetClock(func() time.Time { return now })

	for i := 0; i < 3; i++ {
		if ok, _ := rl.Allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.Allow("alice")
	if ok {
		t.Fatal("over-burst allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter %v", retry)
	}

	// Keys are independent.
	if ok, _ := rl.Allow("bob"); !ok {
		t.Fatal("independent key throttled")
	}

	// Refill at 1 token/s.
	now = now.Add(2 * time.Second)
	if ok, _ := rl.Allow("alice"); !ok {
		t.Fatal("no refill after 2s")
	}
	if ok, _ := rl.Allow("alice"); !ok {
		t.Fatal("second refilled token missing")
	}
	if ok, _ := rl.Allow("alice"); ok {
		t.Fatal("refill exceeded elapsed time")
	}
}

func TestRateLimiterPrunesIdleBuckets(t *testing.T) {
	rl, err := NewRateLimiter(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	rl.SetClock(func() time.Time { return now })
	for i := 0; i < maxBuckets; i++ {
		rl.Allow(string(rune('a')) + itoa(i))
	}
	// All idle buckets have fully refilled; the next new key prunes them.
	now = now.Add(time.Minute)
	rl.Allow("fresh")
	rl.mu.Lock()
	n := len(rl.buckets)
	rl.mu.Unlock()
	if n > 1 {
		t.Fatalf("%d buckets survived prune", n)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestWithTimeoutPropagatesDeadline(t *testing.T) {
	var deadline time.Time
	var hasDeadline bool
	h := WithTimeout(50*time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline, hasDeadline = r.Context().Deadline()
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !hasDeadline {
		t.Fatal("no deadline propagated")
	}
	if until := time.Until(deadline); until > 50*time.Millisecond {
		t.Fatalf("deadline too far out: %v", until)
	}
}

func TestShedResponseRoundsUp(t *testing.T) {
	rec := httptest.NewRecorder()
	ShedResponse(rec, http.StatusTooManyRequests, 1500*time.Millisecond, "slow down")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatal(rec.Code)
	}
	if rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q", rec.Header().Get("Retry-After"))
	}
	// Sub-second hints still advertise at least one second.
	rec = httptest.NewRecorder()
	ShedResponse(rec, http.StatusServiceUnavailable, 10*time.Millisecond, "x")
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q", rec.Header().Get("Retry-After"))
	}
}

// Wait blocks until a token accrues, and honors cancellation while parked.
func TestRateLimiterWait(t *testing.T) {
	rl, err := NewRateLimiter(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Burst token is free; the second call must wait ~10ms for a refill.
	start := time.Now()
	if err := rl.Wait(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if err := rl.Wait(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("second Wait returned after %v without a refill wait", elapsed)
	}

	// An exhausted bucket with a nearly-dead refill rate: cancellation wins.
	slow, err := NewRateLimiter(0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.Wait(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := slow.Wait(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on drained bucket returned %v", err)
	}

	// An already-cancelled context returns immediately and must NOT
	// consume a token: the caller is gone, so granting would leak the
	// token past its user and starve the next live waiter.
	fresh, err := NewRateLimiter(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := fresh.Wait(done, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with dead context returned %v", err)
	}
	if ok, _ := fresh.Allow("k"); !ok {
		t.Fatal("dead-context Wait consumed the burst token")
	}
}

// TestRateLimiterWaitCancelPrompt proves a context cancelled mid-wait
// returns promptly — bounded by the cancellation, not by the (enormous)
// refill interval — and that the aborted wait consumed nothing.
func TestRateLimiterWaitCancelPrompt(t *testing.T) {
	rl, err := NewRateLimiter(0.0001, 1) // next refill ~3 hours away
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := rl.Allow("k"); !ok {
		t.Fatal("burst token missing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- rl.Wait(ctx, "k") }()
	time.Sleep(10 * time.Millisecond) // park the waiter on its timer
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return promptly after cancel")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("cancel-to-return took %v", waited)
	}
	// The aborted wait must not have burned the bucket's accounting:
	// with time frozen at "now", exactly zero tokens should have been
	// granted beyond the one Allow above.
	if ok, _ := rl.Allow("k"); ok {
		t.Fatal("cancelled Wait left a phantom token behind")
	}
}

// TestRateLimiterWaitConcurrentCancelNoLeak drains a frozen-clock bucket,
// parks many waiters, cancels them all, then advances the clock by
// exactly burst refills: if any cancelled waiter had consumed or leaked a
// token, the final tally could not come out to exactly burst grants.
func TestRateLimiterWaitConcurrentCancelNoLeak(t *testing.T) {
	const burst = 4
	rl, err := NewRateLimiter(1, burst)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	now := base
	var mu sync.Mutex
	rl.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	for i := 0; i < burst; i++ {
		if ok, _ := rl.Allow("k"); !ok {
			t.Fatalf("burst token %d missing", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 2*burst)
	for i := 0; i < 2*burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rl.Wait(ctx, "k") // clock frozen: no refill, all park
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d returned %v", i, err)
		}
	}
	// Advance exactly burst seconds: the bucket refills to full and not a
	// token more. burst Allows succeed, the next fails — proof the eight
	// cancelled waiters neither consumed nor leaked anything.
	mu.Lock()
	now = base.Add(burst * time.Second)
	mu.Unlock()
	for i := 0; i < burst; i++ {
		if ok, _ := rl.Allow("k"); !ok {
			t.Fatalf("refilled token %d missing after concurrent cancel", i)
		}
	}
	if ok, _ := rl.Allow("k"); ok {
		t.Fatal("bucket over-refilled: a cancelled waiter leaked a token")
	}
}
