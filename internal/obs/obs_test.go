package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Concurrent counter/gauge/histogram updates must be exact (run under
// -race as part of the race gate).
func TestConcurrentUpdatesExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	g := r.Gauge("test.gauge")
	h := r.Histogram("test.hist", []float64{1, 2, 4})

	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Add(2)
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j % 5))
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.Load(), int64(2*goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	// Each goroutine observes 0,1,2,3,4 repeating: sum per goroutine is
	// perG/5 * 10.
	if got, want := h.Sum(), float64(goroutines*(perG/5)*10); got != want {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// Observations must land in the bucket whose bound is the smallest
// upper bound >= x, with values above the last bound in the overflow
// bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0, 0.5, 1} { // <= 1
		h.Observe(x)
	}
	for _, x := range []float64{1.01, 2} { // (1, 2]
		h.Observe(x)
	}
	h.Observe(3.999)                                        // (2, 4]
	for _, x := range []float64{4.0001, 100, math.Inf(1)} { // > 4
		h.Observe(x)
	}
	s := h.snapshot(false)
	want := []int64{3, 2, 1, 3}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bad)
				}
			}()
			newHistogram(bad)
		}()
	}
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	r.Histogram("h", []float64{1, 2}) // same bounds: fine
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registration with different bounds: expected panic")
			}
		}()
		r.Histogram("h", []float64{1, 3})
	}()
}

// Two snapshots of an unchanged registry must be identical, and so
// must their JSON serializations.
func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(7)
	r.Counter("a.counter").Add(3)
	r.Gauge("z.gauge").Set(-2)
	h := r.Histogram("m.hist", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 5, 50, 500} {
		h.Observe(x)
	}

	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	var j1, j2 bytes.Buffer
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Errorf("JSON serializations differ:\n%s\n%s", j1.String(), j2.String())
	}
	var decoded SnapshotData
	if err := json.Unmarshal(j1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counters["a.counter"] != 3 || decoded.Counters["b.counter"] != 7 {
		t.Errorf("decoded counters = %v", decoded.Counters)
	}
	if hs := decoded.Histograms["m.hist"]; hs.Count != 4 || hs.Counts[3] != 1 {
		t.Errorf("decoded histogram = %+v", hs)
	}
}

// Reset must return exactly what it cleared and leave the registry at
// zero; Snapshot must never clear.
func TestResetSwapSemantics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Histogram("h", []float64{1}).Observe(0.5)

	if got := r.Snapshot().Counters["c"]; got != 5 {
		t.Fatalf("snapshot = %d, want 5", got)
	}
	if got := r.Snapshot().Counters["c"]; got != 5 {
		t.Fatalf("snapshot cleared the counter: %d", got)
	}
	cleared := r.Reset()
	if cleared.Counters["c"] != 5 || cleared.Histograms["h"].Count != 1 {
		t.Errorf("Reset returned %+v, want the pre-reset values", cleared)
	}
	after := r.Snapshot()
	if after.Counters["c"] != 0 || after.Histograms["h"].Count != 0 {
		t.Errorf("registry not cleared: %+v", after)
	}
}

func TestEnabledGatesTimers(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if !Now().IsZero() {
		t.Error("Now() while disabled should be the zero Time")
	}
	r := NewRegistry()
	h := r.Histogram("lat", LatencyBuckets)
	h.ObserveSince(Now())
	h.ObserveSince(time.Now().Add(-time.Second)) // non-zero start, but disabled
	if h.Count() != 0 {
		t.Errorf("disabled ObserveSince recorded %d observations", h.Count())
	}
	recordSpan(r, "op")
	if spans := r.Spans(); len(spans) != 0 {
		t.Errorf("disabled span recorded %d spans", len(spans))
	}

	SetEnabled(true)
	start := Now()
	if start.IsZero() {
		t.Fatal("Now() while enabled returned zero")
	}
	h.ObserveSince(start)
	if h.Count() != 1 {
		t.Errorf("enabled ObserveSince recorded %d observations, want 1", h.Count())
	}
	// A span opened while enabled but ended after a disable is dropped.
	_, sp := r.StartSpan(context.Background(), "late")
	SetEnabled(false)
	sp.End()
	if spans := r.Spans(); len(spans) != 0 {
		t.Errorf("span ended while disabled recorded %d spans", len(spans))
	}
}

func TestSpanRing(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < traceRingSize+10; i++ {
		recordSpan(r, "op")
	}
	spans, dropped := r.trace.snapshot(false)
	if len(spans) != traceRingSize {
		t.Errorf("ring holds %d spans, want %d", len(spans), traceRingSize)
	}
	if dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
	for _, s := range spans {
		if s.Name != "op" || s.Span == 0 || s.Trace == 0 || s.Duration < 0 {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestHTTPHandlerServesJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("http.hits").Add(42)
	addr, err := r.Serve("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var s SnapshotData
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("endpoint did not serve valid JSON: %v", err)
	}
	if s.Counters["http.hits"] != 42 {
		t.Errorf("served counters = %v", s.Counters)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := LinearBuckets(0, 2, 3); !reflect.DeepEqual(got, []float64{0, 2, 4}) {
		t.Errorf("LinearBuckets = %v", got)
	}
	if got := ExpBuckets(1, 2, 4); !reflect.DeepEqual(got, []float64{1, 2, 4, 8}) {
		t.Errorf("ExpBuckets = %v", got)
	}
}

// Steady-state metric operations must not allocate — they sit inside
// the MVM loop whose 0 allocs/op contract is enforced by the funcsim
// tests.
func TestMetricOpsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc.c")
	g := r.Gauge("alloc.g")
	h := r.Histogram("alloc.h", LatencyBuckets)
	// Opening a span allocates its context; recording it into a warm
	// ring must not.
	_, sp := r.StartSpan(context.Background(), "op")
	sp.End() // preallocate the ring
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		start := Now()
		h.Observe(1e-5)
		h.ObserveSince(start)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("metric ops allocate %.1f objects per run, want 0", allocs)
	}
}
