package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// TraceContext is the request-scoped trace state carried on a
// context.Context: the trace (request) ID grouping all spans of one
// logical operation, plus the ID of the innermost open span, which
// becomes the parent of any span started under this context.
//
// Contract: a TraceContext is injected once at the request edge
// (serve.Server opens the root span) and flows by value through
// serve.Runner → Sim.ForwardContext → Matrix.MVMContext →
// BatchSolver.SolveReportIntoContext. Layers below the edge never
// invent a trace: they check Valid() and only open child spans when a
// trace is present, so untraced hot paths (benchmarks, training
// loops) pay nothing beyond a context Value lookup.
type TraceContext struct {
	// Trace groups the spans of one logical operation; 0 means
	// untraced.
	Trace int64
	// Span is the innermost open span's ID — the parent for children
	// started under this context. 0 means "root level".
	Span int64
}

// Valid reports whether the context carries a live trace.
func (tc TraceContext) Valid() bool { return tc.Trace != 0 }

// traceCtxKey keys TraceContext values on a context.Context.
type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc. A nil ctx is
// treated as context.Background().
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the TraceContext from ctx. A nil ctx or a
// context without a trace yields the zero (invalid) TraceContext; the
// nil check means hot paths can pass nil contexts without allocating
// a Background.
func TraceFromContext(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// spanIDs issues process-wide span IDs; span IDs share one sequence
// across registries so a parent recorded in one export never collides
// with a child's ID.
var spanIDs atomic.Int64

// Span is an open span started by StartSpan. The zero Span is inert:
// End on it is a no-op, so call sites can unconditionally defer End
// even when the request is untraced.
type Span struct {
	reg    *Registry
	name   string
	track  string
	start  time.Time
	trace  int64
	id     int64
	parent int64
}

// TraceID returns the span's trace ID (0 on the inert zero Span).
func (s Span) TraceID() int64 { return s.trace }

// SpanID returns the span's own ID (0 on the inert zero Span).
func (s Span) SpanID() int64 { return s.id }

// End records the completed span into its registry's trace ring.
// Safe on the zero Span.
func (s Span) End() {
	if s.reg == nil {
		return
	}
	s.reg.trace.record(Event{
		Name:     s.name,
		Start:    s.reg.epochNano + s.start.Sub(s.reg.epoch).Nanoseconds(),
		Duration: time.Since(s.start).Nanoseconds(),
		Trace:    s.trace,
		Span:     s.id,
		Parent:   s.parent,
		Track:    s.track,
	})
}

// StartSpan opens a child span named name under ctx's trace,
// allocating a fresh trace when ctx carries none. It returns a
// derived context carrying the new span as the parent for further
// children, plus the open Span; record it with End.
//
// Cost note: the traced path allocates one context value per span.
// Interior layers that sit on 0 allocs/op hot paths therefore gate on
// TraceFromContext(ctx).Valid() before calling StartSpan — untraced
// work never reaches the allocation.
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, Span) {
	return r.startSpan(ctx, name, "")
}

// StartRootSpan is StartSpan for request edges: it additionally names
// the trace's display track (e.g. "tenant:acme"), which the Chrome
// trace export emits as the thread name of the trace's row so
// per-tenant requests group visibly in the viewer.
func (r *Registry) StartRootSpan(ctx context.Context, name, track string) (context.Context, Span) {
	return r.startSpan(ctx, name, track)
}

func (r *Registry) startSpan(ctx context.Context, name, track string) (context.Context, Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := TraceFromContext(ctx)
	trace := parent.Trace
	if trace == 0 {
		trace = NextTraceID()
	}
	sp := Span{
		reg:    r,
		name:   name,
		track:  track,
		start:  time.Now(),
		trace:  trace,
		id:     spanIDs.Add(1),
		parent: parent.Span,
	}
	return ContextWithTrace(ctx, TraceContext{Trace: trace, Span: sp.id}), sp
}

// StartSpan opens a child span on the Default registry; see
// Registry.StartSpan.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	return std.StartSpan(ctx, name)
}

// StartRootSpan opens a root span with a display track name on the
// Default registry; see Registry.StartRootSpan.
func StartRootSpan(ctx context.Context, name, track string) (context.Context, Span) {
	return std.StartRootSpan(ctx, name, track)
}
