package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// doubler is the stub runner: y = 2x, same shape.
func doubler(_ context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	y := linalg.NewDense(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 2 * v
	}
	return y, nil
}

// blockUntil returns a runner that blocks until gate closes (or the
// context dies), then doubles.
func blockUntil(gate <-chan struct{}) RunnerFunc {
	return func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
		select {
		case <-gate:
			return doubler(ctx, x)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// assertRetryAfter checks the contract every retryable typed outcome
// (429, 503, 504) shares: a Retry-After header equal to the body's
// retry_after_ms rounded up to whole seconds, at least 1.
func assertRetryAfter(t *testing.T, w *httptest.ResponseRecorder, bad ErrorResponse) {
	t.Helper()
	if bad.RetryAfterMS <= 0 {
		t.Errorf("body lacks retry_after_ms: %+v", bad)
	}
	secs := (bad.RetryAfterMS + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	h := w.Header().Get("Retry-After")
	if want := strconv.FormatInt(secs, 10); h != want {
		t.Errorf("Retry-After header %q inconsistent with retry_after_ms %d (want %q)", h, bad.RetryAfterMS, want)
	}
}

func postInfer(t *testing.T, s *Server, req InferRequest) (*httptest.ResponseRecorder, InferResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	var ok InferResponse
	var bad ErrorResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &ok); err != nil {
			t.Fatalf("malformed 200 body %q: %v", w.Body.String(), err)
		}
	} else {
		if err := json.Unmarshal(w.Body.Bytes(), &bad); err != nil {
			t.Fatalf("malformed error body %q: %v", w.Body.String(), err)
		}
	}
	return w, ok, bad
}

func inferReq(rows int) InferRequest {
	req := InferRequest{Inputs: make([][]float64, rows)}
	for i := range req.Inputs {
		req.Inputs[i] = []float64{1, 2, 3}
	}
	return req
}

func TestInferHappyPath(t *testing.T) {
	s, err := NewServer(Config{
		Tiers: []Tier{{Name: "ideal", Runner: RunnerFunc(doubler)}},
		In:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, resp, _ := postInfer(t, s, inferReq(2))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	if resp.Tier != "ideal" || resp.RequestedTier != "ideal" || resp.Shed != 0 || resp.Retries != 0 {
		t.Errorf("unexpected annotations: %+v", resp)
	}
	if len(resp.Outputs) != 2 || resp.Outputs[0][0] != 2 || resp.Outputs[1][2] != 6 {
		t.Errorf("unexpected outputs: %v", resp.Outputs)
	}
}

func TestInferBadInput(t *testing.T) {
	s, err := NewServer(Config{
		Tiers: []Tier{{Name: "ideal", Runner: RunnerFunc(doubler)}},
		In:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	badInput := obs.NewCounter("serve.bad_input")
	b0 := badInput.Load()
	for name, req := range map[string]InferRequest{
		"empty":       {},
		"empty-row":   {Inputs: [][]float64{{}}},
		"ragged":      {Inputs: [][]float64{{1, 2, 3}, {1}}},
		"wrong-width": {Inputs: [][]float64{{1, 2}}},
	} {
		if w, _, _ := postInfer(t, s, req); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader([]byte("{"))))
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", w.Code)
	}
	if d := badInput.Load() - b0; d != 5 {
		t.Errorf("serve.bad_input advanced by %d, want 5", d)
	}
}

// Backpressure: with one in-flight slot and a one-deep tenant queue,
// a third concurrent request must get a typed 429 with Retry-After,
// and the queued ones must still succeed.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := RunnerFunc(func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
		started <- struct{}{}
		return blockUntil(gate)(ctx, x)
	})
	s, err := NewServer(Config{
		Tiers:       []Tier{{Name: "ideal", Runner: runner}},
		MaxInFlight: 1,
		TenantQueue: 1,
		Deadline:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	queueDepth := obs.NewGauge("serve.queue_depth")
	type result struct {
		code int
		bad  ErrorResponse
	}
	results := make(chan result, 2)
	run := func() {
		w, _, bad := postInfer(t, s, inferReq(1))
		results <- result{w.Code, bad}
	}

	go run()
	<-started // r1 holds the in-flight slot
	go run()
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth.Load() < 1 { // r2 parked in the queue
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	w3, _, bad3 := postInfer(t, s, inferReq(1)) // tenant queue full
	if w3.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", w3.Code)
	}
	assertRetryAfter(t, w3, bad3)

	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Errorf("queued request %d: status %d (%+v)", i, r.code, r.bad)
		}
	}
}

// A deadline that expires while the tier runs must come back as a
// typed 504, and repeated deadline-exceeded requests must not leak
// goroutines.
func TestDeadline504AndNoGoroutineLeak(t *testing.T) {
	gate := make(chan struct{}) // never closed: the runner only exits via ctx
	defer close(gate)
	s, err := NewServer(Config{
		Tiers: []Tier{{Name: "ideal", Runner: blockUntil(gate)}},
	})
	if err != nil {
		t.Fatal(err)
	}

	timeout := obs.NewCounter("serve.timeout")
	t0 := timeout.Load()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		req := inferReq(1)
		req.DeadlineMS = 5
		w, _, bad := postInfer(t, s, req)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d body %+v, want 504", i, w.Code, bad)
		}
		assertRetryAfter(t, w, bad)
	}
	if d := timeout.Load() - t0; d != 10 {
		t.Errorf("serve.timeout advanced by %d, want 10", d)
	}
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A client deadline past MaxDeadline is capped at MaxDeadline,
// including the values from 9,223,372,036,855 ms up whose conversion
// to a Duration overflows int64 (into a negative or sub-millisecond
// deadline).
func TestHugeDeadlineCapped(t *testing.T) {
	var (
		mu  sync.Mutex
		got time.Time
	)
	record := RunnerFunc(func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
		d, _ := ctx.Deadline()
		mu.Lock()
		got = d
		mu.Unlock()
		return x, nil
	})
	s, err := NewServer(Config{Tiers: []Tier{{Name: "ideal", Runner: record}}, In: 3})
	if err != nil {
		t.Fatal(err)
	}
	maxDeadline := s.Config().MaxDeadline
	for _, ms := range []int64{maxDeadline.Milliseconds() + 1, 9223372036855, 18446744073710, math.MaxInt64} {
		req := inferReq(1)
		req.DeadlineMS = ms
		before := time.Now()
		w, _, bad := postInfer(t, s, req)
		after := time.Now()
		if w.Code != http.StatusOK {
			t.Errorf("deadline_ms %d: status %d body %+v, want 200", ms, w.Code, bad)
			continue
		}
		mu.Lock()
		d := got
		mu.Unlock()
		// Capped means exactly MaxDeadline from the handler's start,
		// which lies between before and after.
		if d.Before(before.Add(maxDeadline)) || d.After(after.Add(maxDeadline)) {
			t.Errorf("deadline_ms %d: deadline %v after request start, want %v",
				ms, d.Sub(before), maxDeadline)
		}
	}
}

// Under load at/above a tier's ShedAt, the ladder must skip to the
// floor and annotate the response.
func TestShedOnLoad(t *testing.T) {
	s, err := NewServer(Config{
		Tiers: []Tier{
			{Name: "circuit", Runner: RunnerFunc(doubler), ShedAt: 0.5},
			{Name: "ideal", Runner: RunnerFunc(doubler)},
		},
		MaxInFlight: 1, // the request itself pushes load to 1.0 ≥ 0.5
	})
	if err != nil {
		t.Fatal(err)
	}
	shed := obs.NewCounter("serve.shed")
	overload := obs.NewCounter("serve.shed.overload")
	shed0, over0 := shed.Load(), overload.Load()
	w, resp, _ := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if resp.Tier != "ideal" || resp.RequestedTier != "circuit" || resp.Shed != 1 {
		t.Errorf("expected overload shed to floor, got %+v", resp)
	}
	if shed.Load() != shed0+1 || overload.Load() != over0+1 {
		t.Errorf("shed counters did not advance: shed %d→%d overload %d→%d",
			shed0, shed.Load(), over0, overload.Load())
	}
}

// Transient tier failures must be retried with backoff on the same
// tier and the retry count reported.
func TestRetryTransientThenSucceed(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	flaky := RunnerFunc(func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			return nil, ErrChaos
		}
		return doubler(ctx, x)
	})
	s, err := NewServer(Config{
		Tiers:    []Tier{{Name: "circuit", Runner: flaky}, {Name: "ideal", Runner: RunnerFunc(doubler)}},
		RetryMax: 2,
		Backoff:  Backoff{Base: time.Microsecond, Cap: time.Millisecond, Factor: 2, Jitter: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	retry := obs.NewCounter("serve.retry")
	r0 := retry.Load()
	w, resp, _ := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if resp.Tier != "circuit" || resp.Retries != 2 || resp.Shed != 0 {
		t.Errorf("expected 2 retries on the circuit tier, got %+v", resp)
	}
	if d := retry.Load() - r0; d != 2 {
		t.Errorf("serve.retry advanced by %d, want 2", d)
	}
}

// Non-transient failures must not burn retries: the ladder sheds to
// the next tier immediately.
func TestNonTransientShedsWithoutRetry(t *testing.T) {
	boom := RunnerFunc(func(context.Context, *linalg.Dense) (*linalg.Dense, error) {
		return nil, errors.New("boom")
	})
	s, err := NewServer(Config{
		Tiers:    []Tier{{Name: "circuit", Runner: boom}, {Name: "ideal", Runner: RunnerFunc(doubler)}},
		RetryMax: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	shedError := obs.NewCounter("serve.shed.error")
	e0 := shedError.Load()
	w, resp, _ := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if resp.Tier != "ideal" || resp.Retries != 0 || resp.Shed != 1 {
		t.Errorf("expected retry-free shed, got %+v", resp)
	}
	if d := shedError.Load() - e0; d != 1 {
		t.Errorf("serve.shed.error advanced by %d, want 1", d)
	}
}

// A tier whose output is not finite has failed: JSON cannot carry the
// output. Doubling 1e308 overflows to +Inf, so the doubling top tier
// fails and the ladder sheds to the finite floor, feeding the top
// tier's breaker; when the floor overflows too, the answer is a typed
// 503, never a 200 (nor a count as served).
func TestNonFiniteOutputFailsTier(t *testing.T) {
	huge := InferRequest{Inputs: [][]float64{{1e308, 1, 2}}}
	s, err := NewServer(Config{
		Tiers:       []Tier{{Name: "geniex", Runner: RunnerFunc(doubler)}, {Name: "ideal", Runner: RunnerFunc(passthrough)}},
		In:          3,
		BreakerTrip: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, resp, _ := postInfer(t, s, huge)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %q, want 200 from the floor", w.Code, w.Body.String())
	}
	if resp.Tier != "ideal" || resp.Shed != 1 || resp.Retries != 0 || resp.Outputs[0][0] != 1e308 {
		t.Errorf("want the floor's output after one shed, got %+v", resp)
	}
	if st := s.Breaker(0).State(); st != BreakerOpen {
		t.Errorf("top tier's breaker is %v after a non-finite output, want open", st)
	}

	s, err = NewServer(Config{
		Tiers: []Tier{{Name: "geniex", Runner: RunnerFunc(doubler)}, {Name: "ideal", Runner: RunnerFunc(doubler)}},
		In:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := obs.NewCounter("serve.ok")
	ok0 := ok.Load()
	w, _, bad := postInfer(t, s, huge)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(bad.Error, ErrNonFinite.Error()) {
		t.Fatalf("status %d body %q, want a 503 naming the non-finite output", w.Code, w.Body.String())
	}
	if d := ok.Load() - ok0; d != 0 {
		t.Errorf("serve.ok advanced by %d for a failed request", d)
	}
}

// After BreakerTrip consecutive failures the tier's breaker opens and
// later requests skip the tier without touching its runner.
func TestBreakerTripsAndSkips(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	failing := RunnerFunc(func(context.Context, *linalg.Dense) (*linalg.Dense, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, ErrChaos
	})
	s, err := NewServer(Config{
		Tiers:           []Tier{{Name: "circuit", Runner: failing}, {Name: "ideal", Runner: RunnerFunc(doubler)}},
		RetryMax:        1,
		Backoff:         Backoff{Base: time.Microsecond, Factor: 1},
		BreakerTrip:     2,
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	trips := obs.NewCounter("serve.breaker.trips")
	shedBreaker := obs.NewCounter("serve.shed.breaker")
	t0, sb0 := trips.Load(), shedBreaker.Load()

	// First request: 1 attempt + 1 retry = 2 consecutive failures →
	// breaker trips; the request still succeeds on the floor.
	w, resp, _ := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK || resp.Tier != "ideal" {
		t.Fatalf("first request: status %d tier %q", w.Code, resp.Tier)
	}
	if s.Breaker(0).State() != BreakerOpen {
		t.Fatalf("breaker state %v after trip threshold, want open", s.Breaker(0).State())
	}
	if d := trips.Load() - t0; d != 1 {
		t.Errorf("serve.breaker.trips advanced by %d, want 1", d)
	}

	mu.Lock()
	callsAfterTrip := calls
	mu.Unlock()

	// Second request: breaker open → tier skipped, runner untouched.
	w, resp, _ = postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK || resp.Tier != "ideal" || resp.Shed != 1 {
		t.Fatalf("second request: status %d resp %+v", w.Code, resp)
	}
	mu.Lock()
	if calls != callsAfterTrip {
		t.Errorf("open breaker still let %d calls through", calls-callsAfterTrip)
	}
	mu.Unlock()
	if d := shedBreaker.Load() - sb0; d != 1 {
		t.Errorf("serve.shed.breaker advanced by %d, want 1", d)
	}
}

// A distrusted tier (probe drift over threshold) must be skipped.
func TestDistrustSheds(t *testing.T) {
	distrusted := true
	s, err := NewServer(Config{
		Tiers: []Tier{
			{Name: "geniex", Runner: RunnerFunc(doubler), Distrust: func() bool { return distrusted }},
			{Name: "ideal", Runner: RunnerFunc(doubler)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drift := obs.NewCounter("serve.shed.drift")
	d0 := drift.Load()
	w, resp, _ := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK || resp.Tier != "ideal" || resp.Shed != 1 {
		t.Fatalf("distrusted tier not shed: status %d resp %+v", w.Code, resp)
	}
	if d := drift.Load() - d0; d != 1 {
		t.Errorf("serve.shed.drift advanced by %d, want 1", d)
	}

	distrusted = false
	_, resp, _ = postInfer(t, s, inferReq(1))
	if resp.Tier != "geniex" || resp.Shed != 0 {
		t.Errorf("trusted tier still shed: %+v", resp)
	}
}

// When every rung fails, the outcome is a typed 503 — not a hang, not
// a panic.
func TestExhausted503(t *testing.T) {
	boom := RunnerFunc(func(context.Context, *linalg.Dense) (*linalg.Dense, error) {
		return nil, errors.New("boom")
	})
	s, err := NewServer(Config{Tiers: []Tier{{Name: "only", Runner: boom}}})
	if err != nil {
		t.Fatal(err)
	}
	exhausted := obs.NewCounter("serve.exhausted")
	e0 := exhausted.Load()
	w, _, bad := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if bad.Error == "" {
		t.Error("503 without an error message")
	}
	assertRetryAfter(t, w, bad)
	if d := exhausted.Load() - e0; d != 1 {
		t.Errorf("serve.exhausted advanced by %d, want 1", d)
	}
}

// Chaos error injection on the faithful tier with a spared floor:
// every request still ends in a typed 200, shed to the floor, with
// chaos faults and retries observable.
func TestChaosInjectionSparesFloor(t *testing.T) {
	s, err := NewServer(Config{
		Tiers:    []Tier{{Name: "circuit", Runner: RunnerFunc(doubler)}, {Name: "ideal", Runner: RunnerFunc(doubler)}},
		RetryMax: 1,
		Backoff:  Backoff{Base: time.Microsecond, Factor: 1},
		Chaos:    &ChaosPolicy{ErrorRate: 1, SpareFloor: true, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := obs.NewCounter("serve.chaos.faults")
	f0 := faults.Load()
	for i := 0; i < 4; i++ {
		w, resp, bad := postInfer(t, s, inferReq(1))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (%+v) — chaos leaked a 5xx", i, w.Code, bad)
		}
		if resp.Tier != "ideal" {
			t.Errorf("request %d: tier %q, want floor", i, resp.Tier)
		}
	}
	if faults.Load() == f0 {
		t.Error("chaos injected no faults at ErrorRate=1")
	}
}

// Queue-stall injection must park requests without breaking typed
// outcomes.
func TestChaosQueueStall(t *testing.T) {
	s, err := NewServer(Config{
		Tiers: []Tier{{Name: "ideal", Runner: RunnerFunc(doubler)}},
		Chaos: &ChaosPolicy{StallEvery: 2, Stall: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	stalls := obs.NewCounter("serve.chaos.stalls")
	s0 := stalls.Load()
	for i := 0; i < 4; i++ {
		if w, _, _ := postInfer(t, s, inferReq(1)); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	if d := stalls.Load() - s0; d != 2 {
		t.Errorf("stall counter advanced by %d, want 2", d)
	}
}

func TestHealthz(t *testing.T) {
	s, err := NewServer(Config{
		Tiers: []Tier{{Name: "ideal", Runner: RunnerFunc(doubler)}},
		In:    3, Out: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var h map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["in"] != float64(3) {
		t.Errorf("unexpected healthz: %v", h)
	}
}

// NewServer must reject broken ladders.
func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewServer(Config{Tiers: []Tier{{Name: "", Runner: RunnerFunc(doubler)}}}); err == nil {
		t.Error("unnamed tier accepted")
	}
	if _, err := NewServer(Config{Tiers: []Tier{{Name: "a", Runner: RunnerFunc(doubler)}, {Name: "a", Runner: RunnerFunc(doubler)}}}); err == nil {
		t.Error("duplicate tier names accepted")
	}
	if _, err := NewServer(Config{Tiers: []Tier{{Name: "a"}}}); err == nil {
		t.Error("runnerless tier accepted")
	}
}

// Concurrent mixed traffic against a slow faithful tier must produce
// only typed outcomes (200/429/504) and leave no goroutines behind —
// the burst-safety acceptance criterion at the handler level.
func TestConcurrentBurstTypedOutcomes(t *testing.T) {
	slow := RunnerFunc(func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
		if !sleepCtx(ctx, 2*time.Millisecond) {
			return nil, ctx.Err()
		}
		return doubler(ctx, x)
	})
	s, err := NewServer(Config{
		Tiers: []Tier{
			{Name: "circuit", Runner: slow, ShedAt: 1.5},
			{Name: "ideal", Runner: RunnerFunc(doubler)},
		},
		MaxInFlight: 2,
		TenantQueue: 4,
		Deadline:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const n = 64
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := inferReq(1)
			req.Tenant = fmt.Sprintf("tenant-%d", i%3)
			w, _, _ := postInfer(t, s, req)
			codes <- w.Code
		}(i)
	}
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	for code := range counts {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Errorf("untyped outcome %d under burst: %v", code, counts)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no successes under burst: %v", counts)
	}
	runtime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after burst: %d vs baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Tier versions in responses must be monotonic per tier: the ladder
// reports each response's model version, and a reading below the
// tier's observed maximum — a hot-swap publishing stale state — is
// counted as a regression. Tiers without a Version hook report 0 and
// never count.
func TestTierVersionMonotonic(t *testing.T) {
	var version atomic.Int64
	version.Store(5)
	s, err := NewServer(Config{
		Tiers: []Tier{{Name: "adaptive", Runner: RunnerFunc(doubler), Version: version.Load}},
		In:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	regress := obs.NewCounter("serve.tier.version_regressions")
	r0 := regress.Load()

	w, resp, _ := postInfer(t, s, inferReq(1))
	if w.Code != http.StatusOK || resp.TierVersion != 5 {
		t.Fatalf("status %d tier_version %d, want 200/5", w.Code, resp.TierVersion)
	}
	version.Store(7)
	if _, resp, _ = postInfer(t, s, inferReq(1)); resp.TierVersion != 7 {
		t.Fatalf("tier_version %d after advance, want 7", resp.TierVersion)
	}
	if got := regress.Load(); got != r0 {
		t.Fatalf("monotonic versions counted %d regressions", got-r0)
	}

	// A reading below the observed maximum is a regression: served, but
	// counted.
	version.Store(6)
	if _, resp, _ = postInfer(t, s, inferReq(1)); resp.TierVersion != 6 {
		t.Fatalf("tier_version %d after regression, want 6", resp.TierVersion)
	}
	if got := regress.Load(); got != r0+1 {
		t.Fatalf("version regression counted %d times, want 1", got-r0)
	}

	// Versionless tiers omit the field entirely.
	s2, err := NewServer(Config{
		Tiers: []Tier{{Name: "plain", Runner: RunnerFunc(doubler)}},
		In:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, resp, _ = postInfer(t, s2, inferReq(1))
	if w.Code != http.StatusOK || resp.TierVersion != 0 {
		t.Fatalf("versionless tier: status %d tier_version %d", w.Code, resp.TierVersion)
	}
	if bytes.Contains(w.Body.Bytes(), []byte("tier_version")) {
		t.Errorf("versionless tier serialized tier_version: %s", w.Body.String())
	}
}

// FuzzInfer posts arbitrary bodies to /v1/infer on a server whose tier
// doubles its input, so large inputs overflow to ±Inf. Whatever the
// body, the server must not panic and must answer with a typed
// outcome: 200 with one output row per input row, or 400/429/503/504
// with an ErrorResponse body.
func FuzzInfer(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"acme","inputs":[[1,2,3],[4,5,6]]}`,
		``,
		`{"inputs":[]}`,
		`{"inputs":[[1,2,3],[1]]}`,
		`{"inputs":[[1,2]]}`,
		`{`,
		`{"inputs":[[1,2,3]],"deadline_ms":10001}`,
		`{"inputs":[[1,2,3]],"deadline_ms":9223372036855}`,
		`{"inputs":[[1,2,3]],"deadline_ms":18446744073710}`,
		`{"inputs":[[1,2,3]],"deadline_ms":9223372036854775807}`,
		`{"inputs":[[1e308,1,2]]}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := NewServer(Config{Tiers: []Tier{{Name: "ideal", Runner: RunnerFunc(doubler)}}, In: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			// The server decodes the first JSON value of the body; so
			// does this check.
			var req InferRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for an undecodable body: %v", err)
			}
			var resp InferResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("malformed 200 body %q: %v", w.Body.String(), err)
			}
			if len(resp.Outputs) != len(req.Inputs) {
				t.Fatalf("200 with %d output rows for %d input rows", len(resp.Outputs), len(req.Inputs))
			}
		case http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var bad ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &bad); err != nil || bad.Error == "" {
				t.Fatalf("status %d with body %q, want an ErrorResponse", w.Code, w.Body.String())
			}
		default:
			t.Fatalf("untyped status %d, body %q", w.Code, w.Body.String())
		}
	})
}
