package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter. The zero value
// is ready to use; standalone Counters (not registered in any
// Registry) back per-object statistics such as funcsim's per-Matrix
// hardware-event counts. All methods are safe for concurrent use and
// never allocate.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value without modifying it.
func (c *Counter) Load() int64 { return c.v.Load() }

// Swap atomically resets the counter to zero and returns the value it
// held — the primitive behind every snapshot-and-clear Reset in the
// repo.
func (c *Counter) Swap() int64 { return c.v.Swap(0) }

// Gauge records the latest value of a level (queue depth, in-flight
// workers). The zero value is ready to use. All methods are safe for
// concurrent use and never allocate.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by delta (use +1/-1 around a critical section to
// track occupancy).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram accumulates a distribution of float64 observations into
// fixed buckets. Bucket i counts observations x with x <= Bounds[i]
// (and x > Bounds[i-1]); one extra overflow bucket counts x above the
// last bound. Count and Sum are tracked exactly. Observations are a
// bucket search plus three atomic updates — no locks, no allocations —
// so histograms can sit inside the per-tile MVM loop.
type Histogram struct {
	bounds []float64 // immutable after construction, strictly increasing
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
	// exemplars holds, per bucket, the trace ID of the most recent
	// observation recorded with ObserveExemplar — linking e.g. a
	// slow-request latency bucket to the request's span tree in the
	// trace export. 0 means no exemplar.
	exemplars []atomic.Int64
}

// newHistogram builds a histogram with the given upper bounds. bounds
// must be strictly increasing and non-empty.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Int64, len(b)+1),
	}
}

// bucketOf returns the index of the bucket x lands in. Linear scan:
// bucket lists are short (≤ ~16) and typical observations land in the
// first few buckets, where a scan beats a binary search.
func (h *Histogram) bucketOf(x float64) int {
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	i := h.bucketOf(x)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(x)
}

// ObserveExemplar is Observe plus an exemplar: the trace ID (from a
// request's TraceContext) is stored as the bucket's most recent
// exemplar, so exported snapshots can link a latency bucket — in
// particular the slow tail — to a concrete request's span tree. A
// zero trace records no exemplar. Same cost contract as Observe: a
// few atomics, no allocation.
func (h *Histogram) ObserveExemplar(x float64, trace int64) {
	i := h.bucketOf(x)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(x)
	if trace != 0 {
		h.exemplars[i].Store(trace)
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// snapshot captures the histogram state; when clear is set the state
// is atomically swapped out (per bucket) instead of read.
func (h *Histogram) snapshot(clear bool) HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.Bounds(),
		Counts: make([]int64, len(h.counts)),
	}
	if clear {
		for i := range h.counts {
			s.Counts[i] = h.counts[i].Swap(0)
		}
		s.Count = h.count.Swap(0)
		s.Sum = h.sum.swap(0)
	} else {
		for i := range h.counts {
			s.Counts[i] = h.counts[i].Load()
		}
		s.Count = h.count.Load()
		s.Sum = h.sum.load()
	}
	var any bool
	ex := make([]int64, len(h.exemplars))
	for i := range h.exemplars {
		if clear {
			ex[i] = h.exemplars[i].Swap(0)
		} else {
			ex[i] = h.exemplars[i].Load()
		}
		any = any || ex[i] != 0
	}
	if any {
		s.Exemplars = ex
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(x float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) swap(x float64) float64 {
	return math.Float64frombits(f.bits.Swap(math.Float64bits(x)))
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("obs: LinearBuckets needs n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the shared latency bucket layout: 1µs to ~67s in
// ×4 steps. All *_seconds histograms in the metric catalog use it, so
// latencies compare across subsystems.
var LatencyBuckets = ExpBuckets(1e-6, 4, 14)

// IterBuckets is the shared bucket layout for iteration counts
// (Newton, CG): 1 to 512 in powers of two.
var IterBuckets = ExpBuckets(1, 2, 10)
