// Package obs is the repository's unified observability layer: a
// dependency-free metrics-and-tracing registry shared by the circuit
// solver (package xbar), the functional simulator (package funcsim)
// and the serving frontend (package serve).
//
// # Model
//
// Three metric kinds cover every instrumentation site in the repo:
//
//   - Counter: a monotonically increasing atomic int64 (events).
//   - Gauge: an atomic int64 holding the latest value of a level
//     (queue depth, in-flight workers).
//   - Histogram: fixed upper-bound buckets of atomic counts plus an
//     exact count and sum, for value distributions (Newton iterations)
//     and, through ObserveSince, monotonic-clock latencies.
//
// A HistogramVec is a family of Histograms keyed by label values (the
// per-tenant serve latency), capped at DefaultMaxSeries children.
//
// Metrics live in a Registry under stable dotted names (the catalog is
// documented in DESIGN.md §7). The package-level functions operate on
// the Default registry, which is what all in-repo instrumentation
// uses; tests that need isolation construct their own Registry.
//
// In addition to metrics, a Registry keeps a fixed-size ring buffer of
// span events (name, start, duration) — a lightweight trace of coarse
// operations (per-layer forwards, batch solves) that the snapshot
// exposes without the overhead of full tracing. StartRegion bridges
// the same call sites into runtime/trace regions when an execution
// trace is being captured.
//
// # Cost contract
//
// Instrumentation is always on and is built to sit inside the
// steady-state MVM loop:
//
//   - No metric operation allocates. Counters, gauges and histogram
//     observations are a handful of atomic ops; span events write into
//     preallocated ring slots.
//   - Every registered series is read by a test, a smoke check or the
//     benchmark (the catalog rule in scripts/smoke enforces this), so
//     each atomic update on the hot path pays for itself.
//   - Handles are resolved once, at package init (registration takes a
//     lock; the hot path never does).
//
// # Reset semantics
//
// Reads and resets are distinct everywhere: Snapshot (and every Load)
// is read-only and never clears, while Reset atomically swaps counters
// to zero and returns the snapshot of what it cleared. The same
// convention is mirrored by the per-object stats accessors built on
// this package (funcsim.Matrix.Stats/ResetStats, SolverHealth
// Counts/Reset).
//
// # Export
//
// Snapshot returns a deterministic point-in-time view; WriteJSON and
// WriteProm serialize it. Handler/Serve expose the JSON form over
// HTTP, opted into by the -metrics-addr flag of cmd/funcsim-run and
// cmd/experiments.
package obs

import (
	"context"
	"io"
	"net/http"
	rtrace "runtime/trace"
	"sync/atomic"
)

// Default is the process-wide registry every in-repo instrumentation
// site registers into.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// NewCounter returns (creating if needed) the named counter of the
// Default registry. Call it once at package init and keep the handle;
// registration takes a lock.
func NewCounter(name string) *Counter { return std.Counter(name) }

// NewGauge returns (creating if needed) the named gauge of the
// Default registry.
func NewGauge(name string) *Gauge { return std.Gauge(name) }

// NewHistogram returns (creating if needed) the named histogram of the
// Default registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	return std.Histogram(name, bounds)
}

// NewHistogramVec returns (creating if needed) the named histogram
// vec of the Default registry; every child shares the bucket bounds.
func NewHistogramVec(name string, bounds []float64, keys ...string) *HistogramVec {
	return std.HistogramVec(name, bounds, keys...)
}

// traceIDs issues process-wide span-grouping IDs; see NextTraceID.
var traceIDs atomic.Int64

// NextTraceID returns a fresh nonzero trace ID. StartSpan allocates
// one per root span, so every span of one logical operation (an
// inference request, a training step) groups on one track in exports.
// The call is a single atomic add — safe on hot paths.
func NextTraceID() int64 { return traceIDs.Add(1) }

// Snapshot returns a read-only, deterministic view of the Default
// registry. It never clears anything; use Reset to clear.
func Snapshot() SnapshotData { return std.Snapshot() }

// Reset atomically clears every metric and the trace ring of the
// Default registry and returns the snapshot of the cleared state.
func Reset() SnapshotData { return std.Reset() }

// WriteJSON writes the Default registry's snapshot as JSON.
func WriteJSON(w io.Writer) error { return std.WriteJSON(w) }

// WriteProm writes the Default registry's snapshot in the Prometheus
// text exposition format.
func WriteProm(w io.Writer) error { return std.WriteProm(w) }

// WriteTrace exports the Default registry's span ring as Chrome
// trace-event JSON and returns the number of events written.
func WriteTrace(w io.Writer) (int, error) { return std.WriteTrace(w) }

// Handler returns an http.Handler serving the Default registry's JSON
// snapshot.
func Handler() http.Handler { return std.Handler() }

// Serve exposes the Default registry on addr (e.g. "127.0.0.1:9090";
// port 0 picks a free port) and returns the bound address. The server
// runs until the process exits. withPprof additionally mounts the
// net/http/pprof handlers under /debug/pprof/ (opt-in: profiling
// endpoints on a metrics port are a debugging tool, not a default).
func Serve(addr string, withPprof bool) (string, error) { return std.Serve(addr, withPprof) }

// Region is a started runtime/trace region (possibly inert). The zero
// Region is inert; End on it is a no-op.
type Region struct{ r *rtrace.Region }

// StartRegion opens a runtime/trace region named name when runtime
// tracing is enabled; otherwise it returns an inert Region. The
// untraced path is one atomic load and no allocations, so the hook can
// sit inside the steady-state MVM loop.
func StartRegion(name string) Region {
	if !rtrace.IsEnabled() {
		return Region{}
	}
	return Region{r: rtrace.StartRegion(context.Background(), name)}
}

// End closes the region. Safe on the zero Region.
func (r Region) End() {
	if r.r != nil {
		r.r.End()
	}
}
