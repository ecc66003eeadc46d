package main

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op (an image, a request, a fit) share op; parent is the id of the
// span that caused this one, 0 for the op's root.
type span struct {
	name       string
	op         int64
	id, parent int64
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps the benchmark's own spans in memory until the run ends.
// A nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id before the span ends, so children started
// inside it can name it as their parent.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanCtx carries the op and the enclosing span id down through layer
// calls that take a context, so wrappers below can parent their spans.
type spanCtx struct{ op, parent int64 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, op, parent int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{op, parent})
}

func spanFrom(ctx context.Context) spanCtx {
	if ctx == nil {
		return spanCtx{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc
}

// covered returns how much of [lo, hi] the union of the intervals
// covers; overlapping intervals (concurrent children) count once.
func covered(lo, hi time.Time, ivs []span) time.Duration {
	type iv struct{ a, b time.Time }
	clipped := make([]iv, 0, len(ivs))
	for _, s := range ivs {
		a, b := s.start, s.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a.Before(clipped[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, c := range clipped {
		if i == 0 || c.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = c.a, c.b
			continue
		}
		if c.b.After(curB) {
			curB = c.b
		}
	}
	if len(clipped) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// selfTimes reduces a span tree to exclusive time: each span's
// duration minus the part of it its children cover. The result maps
// span name to op to the summed self time of that name in that op.
func selfTimes(spans []span) map[string]map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]map[int64]time.Duration{}
	for _, s := range spans {
		byOp := out[s.name]
		if byOp == nil {
			byOp = map[int64]time.Duration{}
			out[s.name] = byOp
		}
		byOp[s.op] += s.dur() - covered(s.start, s.end, children[s.id])
	}
	return out
}

// writeChrome writes spans as Chrome trace-event JSON, the format
// obs.WriteTrace uses: one complete ("X") event per span on its op's
// track, with span and parent ids as args.
func writeChrome(w io.Writer, epoch time.Time, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Cat: "span", Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"span_id": s.id, "parent_id": s.parent},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}

// reset drops the spans recorded so far (a warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}
