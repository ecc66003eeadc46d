package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// recordSpan opens and immediately ends one span named name on r.
func recordSpan(r *Registry, name string) {
	_, sp := r.StartSpan(context.Background(), name)
	sp.End()
}

// WriteTrace must emit valid Chrome trace-event JSON: epoch-relative
// microsecond timestamps, one track (tid) per trace ID, sorted by ts.
func TestWriteTraceChromeFormat(t *testing.T) {
	r := NewRegistry()
	// Seed the ring out of order, with explicit epoch offsets, plus
	// one ungrouped (trace 0) event.
	at := func(name string, offset time.Duration, trace int64) {
		r.trace.record(Event{
			Name:     name,
			Start:    r.epochNano + offset.Nanoseconds(),
			Duration: time.Millisecond.Nanoseconds(),
			Trace:    trace,
		})
	}
	at("second", 3*time.Millisecond, 7)
	at("first", 1*time.Millisecond, 7)
	at("ungrouped", 2*time.Millisecond, 0)

	var buf bytes.Buffer
	n, err := r.WriteTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("WriteTrace reported %d events, want 3", n)
	}
	var tr struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int64   `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3", len(tr.TraceEvents))
	}
	// Sorted by ts: first (1ms), ungrouped (2ms), second (3ms).
	wantOrder := []string{"first", "ungrouped", "second"}
	wantTid := []int64{7, 0, 7}
	prev := math.Inf(-1)
	for i, e := range tr.TraceEvents {
		if e.Name != wantOrder[i] {
			t.Errorf("event %d = %q, want %q", i, e.Name, wantOrder[i])
		}
		if e.Tid != wantTid[i] {
			t.Errorf("event %d tid = %d, want %d", i, e.Tid, wantTid[i])
		}
		if e.Ph != "X" {
			t.Errorf("event %d ph = %q, want X", i, e.Ph)
		}
		if e.Ts < prev {
			t.Errorf("events not sorted: ts[%d]=%g after %g", i, e.Ts, prev)
		}
		prev = e.Ts
		if want := float64(i + 1); e.Ts != 1e3*want || e.Dur != 1e3 {
			t.Errorf("event %d has ts=%gµs dur=%gµs, want %gµs and 1000µs", i, e.Ts, e.Dur, 1e3*want)
		}
	}
}

// Span Start values must be anchored at the registry epoch: a span
// started right after registry creation has a small positive offset.
func TestSpanTimestampsEpochAnchored(t *testing.T) {
	r := NewRegistry()
	_, sp := r.StartSpan(ContextWithTrace(context.Background(), TraceContext{Trace: 3}), "op")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	e := spans[0]
	off := e.Start - r.epochNano
	if off < 0 || off > int64(time.Second) {
		t.Errorf("span offset from epoch = %dns, want small and non-negative", off)
	}
	if e.Trace != 3 {
		t.Errorf("span trace id = %d, want 3", e.Trace)
	}
	s := r.Snapshot()
	if s.EpochUnixNano != r.epochNano {
		t.Errorf("snapshot epoch = %d, registry = %d", s.EpochUnixNano, r.epochNano)
	}
	// Reset clears spans but never re-anchors time.
	r.Reset()
	if got := r.Snapshot().EpochUnixNano; got != s.EpochUnixNano {
		t.Errorf("Reset moved the epoch: %d -> %d", s.EpochUnixNano, got)
	}
}

func TestNextTraceIDUnique(t *testing.T) {
	a, b := NextTraceID(), NextTraceID()
	if a == b || a == 0 || b == 0 {
		t.Errorf("NextTraceID returned %d then %d, want distinct non-zero", a, b)
	}
}

// Quantile estimates must interpolate inside the right bucket and hit
// the documented edge cases (empty, first bucket, overflow).
func TestHistogramQuantile(t *testing.T) {
	h := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{2, 2, 0, 0}, // 2 in (0,1], 2 in (1,2]
		Count:  4,
	}
	// p50 rank = 2 → exactly fills bucket 0 → interpolates to its top.
	if got := h.Quantile(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("p50 = %g, want 1", got)
	}
	// p75 rank = 3 → halfway through bucket (1,2] → 1.5.
	if got := h.Quantile(0.75); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("p75 = %g, want 1.5", got)
	}
	// Overflow bucket reports the last bound.
	over := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{0, 0, 5}, Count: 5}
	if got := over.Quantile(0.99); got != 2 {
		t.Errorf("overflow p99 = %g, want 2", got)
	}
	// Empty histogram reports 0.
	if got := (HistogramSnapshot{Bounds: []float64{1}}).Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

// When every observation landed in the overflow bucket the estimator
// has no upper edge to interpolate toward: every quantile — including
// clamped out-of-range q — must report the last bound, never a value
// beyond it or a division artifact.
func TestHistogramQuantileAllMassInOverflow(t *testing.T) {
	h := HistogramSnapshot{
		Bounds: []float64{0.5, 1, 2},
		Counts: []int64{0, 0, 0, 7}, // all mass past Bounds[2]
		Count:  7,
	}
	for _, q := range []float64{-1, 0, 1e-9, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("Quantile(%g) = %g, want clamp to last bound 2", q, got)
		}
	}
	// Snapshot-time percentiles go through the same clamp.
	h.P50, h.P95, h.P99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if h.P50 != 2 || h.P95 != 2 || h.P99 != 2 {
		t.Errorf("precomputed quantiles not clamped: p50=%g p95=%g p99=%g", h.P50, h.P95, h.P99)
	}
}

// Snapshots must carry precomputed p50/p95/p99.
func TestSnapshotQuantilesPopulated(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.hist", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5)
	}
	s := r.Snapshot().Histograms["q.hist"]
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Errorf("quantiles not ordered: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
	if got := s.Quantile(0.5); got != s.P50 {
		t.Errorf("P50 = %g, Quantile(0.5) = %g", s.P50, got)
	}
}
