// Package serve is the overload-resilient inference frontend of the
// functional simulator: an HTTP/JSON server that executes lowered
// models through a fidelity degradation ladder (circuit → GENIEx →
// analytical → ideal), with admission control, per-request deadlines
// threaded down into the circuit solver, retry-with-backoff for
// transient solver faults, and a per-tier circuit breaker.
//
// The design principle is that every overload outcome is typed: a
// request either succeeds (200, annotated with the tier that actually
// served it), is rejected at admission (429 + Retry-After), runs out
// of deadline (504), or exhausts every tier (503). The server never
// queues unboundedly and never crashes under burst; see DESIGN.md §9.
package serve

import "geniex/internal/obs"

// Metric handles for the serving frontend, registered once in the
// process-wide obs registry. The typed outcome counters (ok, rejected,
// timeout, exhausted, bad_input) count each request once, by its
// terminal outcome.
var (
	mOK        = obs.NewCounter("serve.ok")
	mRejected  = obs.NewCounter("serve.rejected")  // 429 at admission
	mTimeout   = obs.NewCounter("serve.timeout")   // 504 deadline exceeded
	mExhausted = obs.NewCounter("serve.exhausted") // 503 every tier failed
	mBadInput  = obs.NewCounter("serve.bad_input") // 400 malformed request

	mShedOverload = obs.NewCounter("serve.shed.overload")
	mShedBreaker  = obs.NewCounter("serve.shed.breaker")
	mShedDrift    = obs.NewCounter("serve.shed.drift")
	mShedError    = obs.NewCounter("serve.shed.error")
	mShed         = obs.NewCounter("serve.shed")

	mRetry          = obs.NewCounter("serve.retry")
	mVersionRegress = obs.NewCounter("serve.tier.version_regressions")
	mBreakerTrips   = obs.NewCounter("serve.breaker.trips")
	mChaosFaults    = obs.NewCounter("serve.chaos.faults")
	mChaosStalls    = obs.NewCounter("serve.chaos.stalls")

	mQueueDepth = obs.NewGauge("serve.queue_depth")
	mInFlight   = obs.NewGauge("serve.inflight")

	// serve.tenant.latency_seconds{tenant}: end-to-end latency of 200
	// responses per tenant, each observation carrying the request's
	// trace ID as its bucket exemplar. Children are resolved once per
	// tenant and cached on the tenantQueue, so the request path touches
	// only a pre-resolved handle. Tenant names are caller-controlled,
	// so the vec's cardinality cap applies: past it, new tenants
	// aggregate into the "_overflow" series and obs.labels.dropped
	// counts the redirections.
	vTenantLatency = obs.NewHistogramVec("serve.tenant.latency_seconds", obs.LatencyBuckets, "tenant")
)
