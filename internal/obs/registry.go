package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// ErrDuplicateName is wrapped by every Try* registration method when a
// metric name is already registered as a different kind (counter vs
// gauge vs histogram vs histogram vec vs SLO) or with a different
// shape (histogram bounds, vec label keys). Re-registering the same
// name with the same kind and shape is NOT an error: it idempotently
// returns the existing instance, so hot-swapped components and tests
// can re-register safely. The panicking registration methods
// (Counter, Histogram, HistogramVec, ...) panic with this error's
// message in the conflict cases.
var ErrDuplicateName = errors.New("obs: duplicate metric name")

// Registry holds named metrics and the span-event trace ring. Metric
// registration (Counter/Gauge/Histogram) is get-or-create and takes a
// lock; instrumented code registers once at init and keeps the
// handles, so the hot path never touches the registry itself.
type Registry struct {
	// epoch is the wall-clock instant the registry was created,
	// carrying Go's monotonic reading; epochNano caches its UnixNano.
	// Every span Start in the trace ring is epoch + monotonic delta
	// (see Event), which gives exports a stable base that survives
	// wall-clock steps. The epoch is fixed for the registry's lifetime
	// — Reset clears metrics and spans but never re-anchors time.
	epoch     time.Time
	epochNano int64

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// kinds maps every registered name to its metric kind, backing the
	// cross-kind duplicate-name check (see ErrDuplicateName).
	kinds         map[string]string
	histogramVecs map[string]*HistogramVec
	slos          map[string]*SLO
	trace         eventRing
}

// NewRegistry creates an empty registry. Most code uses Default;
// separate registries exist for tests that need isolation.
func NewRegistry() *Registry {
	now := time.Now()
	return &Registry{
		epoch:         now,
		epochNano:     now.UnixNano(),
		counters:      map[string]*Counter{},
		gauges:        map[string]*Gauge{},
		histograms:    map[string]*Histogram{},
		kinds:         map[string]string{},
		histogramVecs: map[string]*HistogramVec{},
		slos:          map[string]*SLO{},
	}
}

// Epoch returns the registry's creation wall time — the stable base
// every span timestamp and trace export is anchored to.
func (r *Registry) Epoch() time.Time { return r.epoch }

// claimLocked records name under kind, failing with ErrDuplicateName
// if the name is already held by a different kind. Callers hold r.mu.
func (r *Registry) claimLocked(name, kind string) error {
	if k, ok := r.kinds[name]; ok && k != kind {
		return fmt.Errorf("%w: %q already registered as %s, requested %s",
			ErrDuplicateName, name, k, kind)
	}
	r.kinds[name] = kind
	return nil
}

// counterLocked is the get-or-create body of TryCounter for callers
// already holding r.mu (vec registration creates the shared
// obs.labels.dropped counter under the registry lock).
func (r *Registry) counterLocked(name string) (*Counter, error) {
	if err := r.claimLocked(name, "counter"); err != nil {
		return nil, err
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c, nil
}

// TryCounter returns the named counter, creating it on first use.
// Re-registering the same name as a counter returns the same instance
// (idempotent); a name held by another metric kind returns an error
// wrapping ErrDuplicateName.
func (r *Registry) TryCounter(name string) (*Counter, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

// Counter returns the named counter, creating it on first use. It
// panics if the name is held by a different metric kind; use
// TryCounter to handle that as an error.
func (r *Registry) Counter(name string) *Counter {
	c, err := r.TryCounter(name)
	if err != nil {
		panic(err)
	}
	return c
}

// TryGauge returns the named gauge, creating it on first use, with
// the same idempotency and ErrDuplicateName contract as TryCounter.
func (r *Registry) TryGauge(name string) (*Gauge, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.claimLocked(name, "gauge"); err != nil {
		return nil, err
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g, nil
}

// Gauge returns the named gauge, creating it on first use. It panics
// if the name is held by a different metric kind.
func (r *Registry) Gauge(name string) *Gauge {
	g, err := r.TryGauge(name)
	if err != nil {
		panic(err)
	}
	return g
}

// TryHistogram returns the named histogram, creating it with the
// given bucket bounds on first use. Re-registering an existing name
// with identical bounds returns the existing histogram (idempotent);
// mismatched bounds or a name held by another kind return an error
// wrapping ErrDuplicateName — two call sites silently feeding
// differently-shaped buckets would corrupt the distribution.
func (r *Registry) TryHistogram(name string, bounds []float64) (*Histogram, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.claimLocked(name, "histogram"); err != nil {
		return nil, err
	}
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
		return h, nil
	}
	if err := sameBounds(name, h.bounds, bounds); err != nil {
		return nil, err
	}
	return h, nil
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. It panics on a bounds mismatch or a
// cross-kind name conflict; use TryHistogram to handle those as
// errors.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, err := r.TryHistogram(name, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

func sameBounds(name string, have, want []float64) error {
	if len(have) != len(want) {
		return fmt.Errorf("%w: histogram %q re-registered with %d bounds, have %d",
			ErrDuplicateName, name, len(want), len(have))
	}
	for i := range want {
		if have[i] != want[i] {
			return fmt.Errorf("%w: histogram %q re-registered with different bound[%d]",
				ErrDuplicateName, name, i)
		}
	}
	return nil
}

// TryHistogramVec returns the named histogram vec (every child shares
// the bucket bounds), creating it on first use. Identical
// re-registration is idempotent; mismatched keys or bounds, or a
// cross-kind name conflict, return an error wrapping
// ErrDuplicateName.
func (r *Registry) TryHistogramVec(name string, bounds []float64, keys ...string) (*HistogramVec, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.claimLocked(name, "histogram_vec"); err != nil {
		return nil, err
	}
	if hv, ok := r.histogramVecs[name]; ok {
		if err := sameKeys(name, hv.v.keys, keys); err != nil {
			return nil, err
		}
		if err := sameBounds(name, hv.bounds, bounds); err != nil {
			return nil, err
		}
		return hv, nil
	}
	dropped, err := r.counterLocked(labelsDroppedName)
	if err != nil {
		return nil, err
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	hv := &HistogramVec{
		v:      newVec(name, keys, dropped, func() *Histogram { return newHistogram(b) }),
		bounds: b,
	}
	r.histogramVecs[name] = hv
	return hv, nil
}

// HistogramVec returns the named histogram vec, creating it on first
// use; it panics where TryHistogramVec returns an error.
func (r *Registry) HistogramVec(name string, bounds []float64, keys ...string) *HistogramVec {
	hv, err := r.TryHistogramVec(name, bounds, keys...)
	if err != nil {
		panic(err)
	}
	return hv
}

func sameKeys(name string, have, want []string) error {
	if len(have) != len(want) {
		return fmt.Errorf("%w: vec %q re-registered with %d label keys, have %d",
			ErrDuplicateName, name, len(want), len(have))
	}
	for i := range want {
		if have[i] != want[i] {
			return fmt.Errorf("%w: vec %q re-registered with label key %q at %d, have %q",
				ErrDuplicateName, name, want[i], i, have[i])
		}
	}
	return nil
}

// HistogramSnapshot is the exported state of one histogram. Counts has
// one entry per bound plus a final overflow bucket. P50/P95/P99 are
// bucket-interpolated quantile estimates computed at snapshot time
// (see Quantile); they are estimates bounded by the bucket layout, not
// exact order statistics.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// Exemplars, when present, holds per-bucket trace IDs of the most
	// recent ObserveExemplar observation — a link from a bucket (e.g.
	// the slow latency tail) into the span ring's trace export.
	// Omitted when no bucket has an exemplar.
	Exemplars []int64 `json:"exemplar_trace_ids,omitempty"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
}

// Mean returns Sum/Count, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket
// counts by linear interpolation inside the bucket containing the
// target rank — the usual fixed-bucket estimator, so the result is
// bounded by the bucket resolution. The first bucket interpolates
// from 0 when its upper bound is positive (every in-repo layout is
// non-negative); observations in the overflow bucket report the last
// bound. An empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1] // overflow bucket
			}
			hi := h.Bounds[i]
			lo := 0.0
			switch {
			case i > 0:
				lo = h.Bounds[i-1]
			case hi <= 0:
				lo = hi // unknown lower edge: no interpolation
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// SnapshotData is a deterministic point-in-time view of a registry:
// identical registry state always yields an identical snapshot (and
// identical JSON — map keys marshal sorted).
type SnapshotData struct {
	// EpochUnixNano is the registry's creation wall time; span Start
	// values are epoch-anchored (see Event), so Start−EpochUnixNano is
	// the span's offset into the run.
	EpochUnixNano int64 `json:"epoch_unix_nano"`
	// Counters, Gauges and Histograms hold the flat scalar metrics
	// under plain dotted names; Histograms also holds every histogram
	// vec child, flattened under a rendered series name of the form
	// name{k1="v1",k2="v2"} (label keys in registration order, values
	// Prometheus-escaped), so JSON consumers see labeled series without
	// a schema change.
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// SLOs holds the windowed burn-rate trackers by name.
	SLOs map[string]SLOSnapshot `json:"slos,omitempty"`
	// Spans lists the retained trace events, oldest first.
	Spans []Event `json:"spans,omitempty"`
	// SpansDropped counts span events that fell off the ring.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// Snapshot returns a read-only view of the registry. Metrics keep
// counting; nothing is cleared (see Reset).
func (r *Registry) Snapshot() SnapshotData { return r.capture(false) }

// Reset atomically clears every counter, gauge, histogram and the
// trace ring, returning the snapshot of the values it cleared. Reset
// is the only operation that zeroes registry state; Snapshot and the
// individual Load accessors never do.
func (r *Registry) Reset() SnapshotData { return r.capture(true) }

func (r *Registry) capture(clear bool) SnapshotData {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := SnapshotData{
		EpochUnixNano: r.epochNano,
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		if clear {
			s.Counters[name] = c.Swap()
		} else {
			s.Counters[name] = c.Load()
		}
	}
	for name, g := range r.gauges {
		if clear {
			s.Gauges[name] = g.v.Swap(0)
		} else {
			s.Gauges[name] = g.Load()
		}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot(clear)
	}
	for _, hv := range r.histogramVecs {
		hv.capture(s.Histograms, clear)
	}
	if len(r.slos) > 0 {
		s.SLOs = make(map[string]SLOSnapshot, len(r.slos))
		for name, slo := range r.slos {
			s.SLOs[name] = slo.capture(clear)
		}
	}
	s.Spans, s.SpansDropped = r.trace.snapshot(clear)
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
