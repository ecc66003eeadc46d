package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
	"geniex/internal/xbar"
)

// Runner executes one inference at some fidelity. *funcsim.Sim
// satisfies it directly; tests use RunnerFunc stubs.
type Runner interface {
	ForwardContext(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error)

// ForwardContext implements Runner.
func (f RunnerFunc) ForwardContext(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	return f(ctx, x)
}

// Tier is one rung of the fidelity degradation ladder, ordered most
// faithful first in Config.Tiers. The last tier is the floor: the
// ladder never sheds past it, so it should be the cheap, reliable
// model (analytical or ideal).
type Tier struct {
	// Name annotates responses; must be unique.
	Name string
	// Runner executes the tier.
	Runner Runner
	// ShedAt is the load factor (queued+in-flight over MaxInFlight)
	// at or above which the ladder skips this tier. 0 never sheds on
	// load. Ignored on the floor tier.
	ShedAt float64
	// Distrust, when non-nil, reports that this tier's fidelity is
	// currently not trusted (the fidelity probe's drift or SLO burn
	// rate is the intended source); the ladder then sheds past it.
	// Ignored on the floor tier.
	Distrust func() bool
	// Version, when non-nil, reports the tier's current model version
	// (funcsim.Engine.ModelVersion is the intended source for tiers
	// whose model is hot-swapped by a background calibrator). Served
	// responses carry it as tier_version, and the ladder asserts
	// monotonicity: a version lower than one it already served from
	// this tier increments serve.tier.version_regressions — versions
	// are immutable and only ever replaced by newer ones, so a
	// regression means a swap published stale state.
	Version func() int64
}

// Config parameterizes the server. The zero value of each field gets
// a serving-grade default in NewServer.
type Config struct {
	// Tiers is the degradation ladder, most faithful first. Required.
	Tiers []Tier
	// In and Out, when non-zero, validate request/response widths.
	In, Out int
	// MaxInFlight caps concurrently executing requests. Default 4.
	MaxInFlight int
	// TenantQueue bounds each tenant's admission queue (requests
	// waiting for an in-flight slot). Default 16.
	TenantQueue int
	// Deadline is the default per-request deadline; MaxDeadline caps
	// client-requested ones. Defaults 1s and 10s.
	Deadline    time.Duration
	MaxDeadline time.Duration
	// RetryMax is how many times one tier retries a transient failure
	// before the ladder sheds past it. Default 2.
	RetryMax int
	// Backoff is the retry schedule; zero Base gets DefaultBackoff.
	Backoff Backoff
	// BreakerTrip consecutive failures open a tier's breaker;
	// BreakerCooldown later it half-opens. Defaults 5 and 1s.
	BreakerTrip     int
	BreakerCooldown time.Duration
	// Chaos, when non-nil, injects faults (tests and smoke only).
	Chaos *ChaosPolicy
	// Seed seeds the per-request backoff jitter streams. Default 1.
	Seed uint64
	// LatencyTarget and LatencyObjective, when both set, arm the
	// "serve.latency" SLO tracker: every terminal request outcome
	// (except 400s, which are client errors) counts as good when it
	// was a 200 served within LatencyTarget. LatencyObjective is the
	// target good fraction in (0,1) — e.g. 0.99 with a 250ms target
	// means "99% of requests answer correctly within 250ms"; the
	// tracker's burn rate is exposed via LatencySLO and the obs
	// snapshot/Prometheus exposition.
	LatencyTarget    time.Duration
	LatencyObjective float64
	// LatencySLOWindow overrides the SLO's sliding window (default
	// 60s).
	LatencySLOWindow time.Duration
}

func (c *Config) applyDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 16
	}
	if c.Deadline <= 0 {
		c.Deadline = time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Second
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	} else if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.Backoff.Base <= 0 {
		c.Backoff = DefaultBackoff()
	}
	if c.BreakerTrip <= 0 {
		c.BreakerTrip = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Server is the overload-resilient serving frontend. It implements
// http.Handler (POST /v1/infer, GET /healthz); mount obs.Handler()
// alongside it for /metrics.
type Server struct {
	cfg      Config
	sem      chan struct{} // in-flight slots
	queued   atomic.Int64  // admitted but not yet executing, all tenants
	breakers []*Breaker
	// slo, when armed (Config.LatencyTarget/LatencyObjective), tracks
	// the serve latency objective as a windowed burn rate.
	slo *obs.SLO
	// maxVersion tracks the highest model version each tier has
	// served, backing the ladder's version-monotonicity assertion.
	maxVersion []atomic.Int64

	tmu     sync.RWMutex
	tenants map[string]*tenantQueue

	rmu sync.Mutex
	rng *linalg.RNG

	mux *http.ServeMux
}

// tenantQueue tracks one tenant's share of the admission queue plus
// the tenant's pre-resolved latency histogram, so the request path
// never resolves vec children.
type tenantQueue struct {
	queued atomic.Int64
	// track is the trace display row for this tenant's requests
	// ("tenant:<name>"), precomputed so the root span allocates no
	// strings.
	track string
	lat   *obs.Histogram
}

// NewServer validates cfg and applies defaults.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Tiers) == 0 {
		return nil, errors.New("serve: config needs at least one tier")
	}
	seen := map[string]bool{}
	for i, t := range cfg.Tiers {
		if t.Name == "" {
			return nil, fmt.Errorf("serve: tier %d has no name", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("serve: duplicate tier name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Runner == nil {
			return nil, fmt.Errorf("serve: tier %q has no runner", t.Name)
		}
	}
	cfg.applyDefaults()
	s := &Server{
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		breakers:   make([]*Breaker, len(cfg.Tiers)),
		maxVersion: make([]atomic.Int64, len(cfg.Tiers)),
		tenants:    map[string]*tenantQueue{},
		rng:        linalg.NewRNG(cfg.Seed),
	}
	for i := range cfg.Tiers {
		s.breakers[i] = NewBreaker(cfg.BreakerTrip, cfg.BreakerCooldown)
	}
	if cfg.LatencyTarget > 0 && cfg.LatencyObjective > 0 {
		s.slo = obs.NewSLO("serve.latency", obs.SLOConfig{
			Objective: cfg.LatencyObjective,
			Window:    cfg.LatencySLOWindow,
		})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Breaker returns tier i's circuit breaker (tests inspect and
// manipulate it).
func (s *Server) Breaker(i int) *Breaker { return s.breakers[i] }

// LatencySLO returns the "serve.latency" burn-rate tracker, or nil
// when Config did not arm one. Operators key alerting — and
// geniex-serve keys its own health reporting — off its BurnRate.
func (s *Server) LatencySLO() *obs.SLO { return s.slo }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// InferRequest is the POST /v1/infer body.
type InferRequest struct {
	// Tenant keys the bounded admission queue; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Inputs is a batch of input rows, all the same width.
	Inputs [][]float64 `json:"inputs"`
	// DeadlineMS overrides the server's default deadline, capped at
	// Config.MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// InferResponse is the 200 body: outputs plus the resilience
// annotations — which tier actually served the request, how far down
// the ladder it shed, and how many retries it burned.
type InferResponse struct {
	Tier          string      `json:"tier"`
	RequestedTier string      `json:"requested_tier"`
	Shed          int         `json:"shed"`
	Retries       int         `json:"retries"`
	Outputs       [][]float64 `json:"outputs"`
	ElapsedMS     float64     `json:"elapsed_ms"`
	// TierVersion is the serving tier's model version at execution
	// time (present when the tier reports one — see Tier.Version).
	TierVersion int64 `json:"tier_version,omitempty"`
}

// ErrorResponse is the typed non-200 body (429, 504, 503, 400).
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// errExhausted wraps the last tier error when every rung of the
// ladder failed.
type errExhausted struct{ last error }

func (e errExhausted) Error() string { return fmt.Sprintf("all tiers failed: %v", e.last) }
func (e errExhausted) Unwrap() error { return e.last }

// canceled reports whether err is a context cancellation outcome.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// transient reports whether err is worth retrying on the same tier: a
// chaos-injected fault or a degraded/diverged circuit solve (which
// also matches linalg.ErrNoConvergence through the xbar sentinel).
func transient(err error) bool {
	return errors.Is(err, ErrChaos) || errors.Is(err, xbar.ErrNewtonDiverged)
}

func (s *Server) tenant(name string) *tenantQueue {
	if name == "" {
		name = "default"
	}
	// Read-lock fast path: after a tenant's first request every later
	// one only shares the lock, so concurrent requests for distinct
	// tenants never serialize here.
	s.tmu.RLock()
	t, ok := s.tenants[name]
	s.tmu.RUnlock()
	if ok {
		return t
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok = s.tenants[name]
	if !ok {
		t = &tenantQueue{
			track: "tenant:" + name,
			lat:   vTenantLatency.With(name),
		}
		s.tenants[name] = t
	}
	return t
}

// loadFactor is the admission pressure signal the shed ladder keys
// on: (queued + executing) / MaxInFlight. 1.0 means every slot busy
// and nobody waiting; 2.0 means a full slot's worth of queue behind
// every slot.
func (s *Server) loadFactor() float64 {
	return float64(int64(len(s.sem))+s.queued.Load()) / float64(cap(s.sem))
}

// splitRNG derives an independent per-request jitter stream.
func (s *Server) splitRNG() *linalg.RNG {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.rng.Split()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterHint is the wait advertised on 503/504 outcomes: the
// retry schedule's cap, falling back to half the default deadline
// (the 429 heuristic) when the schedule is uncapped, so the hint is
// never zero.
func (s *Server) retryAfterHint() time.Duration {
	if s.cfg.Backoff.Cap > 0 {
		return s.cfg.Backoff.Cap
	}
	return s.cfg.Deadline / 2
}

// writeRetryable writes a retryable typed outcome (429, 503, 504).
// The Retry-After header and the JSON body's RetryAfterMS always
// advertise the same hint: the header is the body value rounded up to
// whole seconds, floored at 1 so clients honouring only the header
// never spin on a zero wait.
func writeRetryable(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	ms := retryAfter.Milliseconds()
	secs := (ms + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, ErrorResponse{Error: msg, RetryAfterMS: ms})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type tierHealth struct {
		Name    string `json:"name"`
		Breaker string `json:"breaker"`
	}
	tiers := make([]tierHealth, len(s.cfg.Tiers))
	for i, t := range s.cfg.Tiers {
		tiers[i] = tierHealth{Name: t.Name, Breaker: s.breakers[i].State().String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"in":     s.cfg.In,
		"out":    s.cfg.Out,
		"load":   s.loadFactor(),
		"tiers":  tiers,
	})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		mBadInput.Inc()
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed JSON: " + err.Error()})
		return
	}
	x, err := denseOf(req.Inputs, s.cfg.In)
	if err != nil {
		mBadInput.Inc()
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	tq := s.tenant(req.Tenant)

	// Cap the requested deadline in milliseconds, before converting: a
	// huge deadline_ms would overflow the Duration product.
	deadline := s.cfg.Deadline
	if req.DeadlineMS > 0 {
		deadline = s.cfg.MaxDeadline
		if req.DeadlineMS <= s.cfg.MaxDeadline.Milliseconds() {
			deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Root span of the request's trace: everything below — forward,
	// MVM, tile, batch solve — parents under it, and the trace lands
	// on the tenant's display track in the Chrome export.
	ctx, span := obs.StartRootSpan(ctx, "serve.request", tq.track)
	defer span.End()

	release, ok := s.admit(ctx, w, tq, start)
	if !ok {
		return // admit wrote the 429/504
	}
	defer release()

	y, tier, shed, retries, err := s.execute(ctx, x)
	elapsed := time.Since(start)
	switch {
	case err == nil:
		mOK.Inc()
		// The exemplar ties the latency bucket — in particular the slow
		// tail — to this request's trace ID, so a scrape can jump from
		// a bad percentile straight to the span tree in /trace.
		tq.lat.ObserveExemplar(elapsed.Seconds(), span.TraceID())
		s.sloObserve(start, true)
		writeJSON(w, http.StatusOK, InferResponse{
			Tier:          s.cfg.Tiers[tier].Name,
			RequestedTier: s.cfg.Tiers[0].Name,
			Shed:          shed,
			Retries:       retries,
			Outputs:       rowsOf(y),
			ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
			TierVersion:   s.tierVersion(tier),
		})
	case canceled(err):
		mTimeout.Inc()
		s.sloObserve(start, false)
		writeRetryable(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error(), s.retryAfterHint())
	default:
		mExhausted.Inc()
		s.sloObserve(start, false)
		writeRetryable(w, http.StatusServiceUnavailable, err.Error(), s.retryAfterHint())
	}
}

// sloObserve feeds the latency SLO (when armed) with one terminal
// outcome: good means the request was served (200) within the
// configured latency target.
func (s *Server) sloObserve(start time.Time, served bool) {
	if s.slo == nil {
		return
	}
	s.slo.Observe(served && time.Since(start) <= s.cfg.LatencyTarget)
}

// tierVersion samples tier i's model version (0 when the tier does
// not report one) and enforces the ladder's monotonicity assertion:
// once a version has been observed from a tier, any lower reading is
// a regression (a hot-swap published stale state) and is counted. The
// reading may legitimately be one ahead of the version that actually
// served the request — a swap can land between execution and this
// sample — which only ever moves the observed maximum forward.
func (s *Server) tierVersion(i int) int64 {
	vf := s.cfg.Tiers[i].Version
	if vf == nil {
		return 0
	}
	v := vf()
	for {
		seen := s.maxVersion[i].Load()
		if v < seen {
			mVersionRegress.Inc()
			return v
		}
		if v == seen || s.maxVersion[i].CompareAndSwap(seen, v) {
			return v
		}
	}
}

// admit runs the bounded-queue + semaphore admission protocol. On
// rejection or timeout it writes the typed response and returns
// ok=false; on success the caller owns an in-flight slot and must
// call release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, tq *tenantQueue, start time.Time) (release func(), ok bool) {
	if tq.queued.Add(1) > int64(s.cfg.TenantQueue) {
		tq.queued.Add(-1)
		mRejected.Inc()
		s.sloObserve(start, false)
		writeRetryable(w, http.StatusTooManyRequests, "tenant queue full", s.cfg.Deadline/2)
		return nil, false
	}
	s.queued.Add(1)
	mQueueDepth.Set(s.queued.Load())
	dequeue := func() {
		tq.queued.Add(-1)
		s.queued.Add(-1)
		mQueueDepth.Set(s.queued.Load())
	}

	if d, stall := s.cfg.Chaos.stall(); stall {
		mChaosStalls.Inc()
		sleepCtx(ctx, d) // park in the queue; deadline still applies
	}

	select {
	case s.sem <- struct{}{}:
		dequeue()
		mInFlight.Set(int64(len(s.sem)))
		return func() {
			<-s.sem
			mInFlight.Set(int64(len(s.sem)))
		}, true
	case <-ctx.Done():
		dequeue()
		mTimeout.Inc()
		s.sloObserve(start, false)
		writeRetryable(w, http.StatusGatewayTimeout, "deadline exceeded in admission queue", s.retryAfterHint())
		return nil, false
	}
}

// execute walks the degradation ladder: skip tiers whose breaker is
// open, whose fidelity is distrusted, or that the current load factor
// sheds; run the first eligible tier with retry/backoff; on
// non-transient or exhausted-retry failure fall to the next rung. The
// floor tier is never skipped — only a hard failure or cancellation
// ends the ladder without a result.
func (s *Server) execute(ctx context.Context, x *linalg.Dense) (y *linalg.Dense, tier, shed, retries int, err error) {
	rng := s.splitRNG()
	var lastErr error
	for i := range s.cfg.Tiers {
		floor := i == len(s.cfg.Tiers)-1
		if !floor {
			if t := &s.cfg.Tiers[i]; t.ShedAt > 0 && s.loadFactor() >= t.ShedAt {
				mShed.Inc()
				mShedOverload.Inc()
				shed++
				continue
			} else if t.Distrust != nil && t.Distrust() {
				mShed.Inc()
				mShedDrift.Inc()
				shed++
				continue
			} else if !s.breakers[i].Allow() {
				mShed.Inc()
				mShedBreaker.Inc()
				shed++
				continue
			}
		}
		var r int
		y, r, err = s.runTier(ctx, i, x, rng)
		retries += r
		if err == nil {
			return y, i, shed, retries, nil
		}
		if canceled(err) {
			return nil, i, shed, retries, err
		}
		lastErr = err
		if !floor {
			mShed.Inc()
			mShedError.Inc()
			shed++
		}
	}
	return nil, 0, shed, retries, errExhausted{lastErr}
}

// runTier executes one tier with the retry/backoff schedule, feeding
// the tier's breaker. Cancellation aborts immediately; a half-open
// probe that gets cancelled re-opens the breaker so it cannot wedge
// in the half-open state.
func (s *Server) runTier(ctx context.Context, i int, x *linalg.Dense, rng *linalg.RNG) (*linalg.Dense, int, error) {
	b := s.breakers[i]
	retries := 0
	for attempt := 0; ; attempt++ {
		y, err := s.attempt(ctx, i, x)
		if err == nil {
			b.Success()
			return y, retries, nil
		}
		if canceled(err) {
			if b.State() == BreakerHalfOpen {
				b.Failure()
			}
			return nil, retries, err
		}
		if b.Failure() {
			mBreakerTrips.Inc()
		}
		if !transient(err) || attempt >= s.cfg.RetryMax {
			return nil, retries, err
		}
		retries++
		mRetry.Inc()
		if !sleepCtx(ctx, s.cfg.Backoff.Delay(attempt, rng)) {
			return nil, retries, fmt.Errorf("serve: cancelled during backoff: %w", ctx.Err())
		}
	}
}

// attempt runs tier i once, applying the chaos layer first (unless
// the policy spares the floor).
func (s *Server) attempt(ctx context.Context, i int, x *linalg.Dense) (*linalg.Dense, error) {
	floor := i == len(s.cfg.Tiers)-1
	if c := s.cfg.Chaos; c.enabled() && !(c.SpareFloor && floor) {
		lat, fail := c.draw()
		if lat > 0 && !sleepCtx(ctx, lat) {
			return nil, fmt.Errorf("serve: cancelled during chaos latency: %w", ctx.Err())
		}
		if fail {
			mChaosFaults.Inc()
			return nil, ErrChaos
		}
	}
	return s.cfg.Tiers[i].Runner.ForwardContext(ctx, x)
}

// denseOf validates a JSON input batch (non-empty, rectangular, width
// in when in > 0) and packs it into a Dense.
func denseOf(rows [][]float64, in int) (*linalg.Dense, error) {
	if len(rows) == 0 {
		return nil, errors.New("inputs must contain at least one row")
	}
	width := len(rows[0])
	if width == 0 {
		return nil, errors.New("input rows must be non-empty")
	}
	if in > 0 && width != in {
		return nil, fmt.Errorf("input rows have %d features, model expects %d", width, in)
	}
	x := linalg.NewDense(len(rows), width)
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("input row %d has %d features, row 0 has %d", i, len(row), width)
		}
		copy(x.Row(i), row)
	}
	return x, nil
}

// rowsOf unpacks a Dense into JSON-ready rows.
func rowsOf(y *linalg.Dense) [][]float64 {
	rows := make([][]float64, y.Rows)
	for i := range rows {
		rows[i] = y.Row(i)
	}
	return rows
}
