package obs

import (
	"fmt"
	"strings"
	"sync"
)

// OverflowLabel is the label value every key takes on the shared
// overflow child of a vec that has hit its cardinality cap. Series
// rendered with this value aggregate everything past the cap; the
// obs.labels.dropped counter records how many observations were
// redirected there.
const OverflowLabel = "_overflow"

// DefaultMaxSeries caps the number of distinct label-value
// combinations one vec will intern. The cap exists because label
// values are caller-controlled strings (tenant names arrive on the
// wire): without a bound, a hostile or misconfigured client could
// grow the registry without limit. 64 comfortably covers the tenants
// of a load test while keeping worst-case snapshot cost trivial.
const DefaultMaxSeries = 64

// labelsDroppedName is the per-registry counter of vec resolutions
// redirected to an overflow child (one increment per redirected With
// call, not per unique label set — so it keeps growing while the
// overflow is being hit, which is the signal that matters).
const labelsDroppedName = "obs.labels.dropped"

// labelKeySep joins label values into an interning key. 0x1f (unit
// separator) cannot collide with printable label values in practice;
// values containing it still round-trip correctly through the
// rendered series name, they merely risk interning collisions, which
// only affects which child two pathological value sets share.
const labelKeySep = "\x1f"

// vecChild is one interned label-value combination and its metric.
type vecChild[M any] struct {
	values []string
	metric *M
}

// vec is the generic core of HistogramVec: a name, a fixed ordered
// label-key list, and a map of interned children. With is the only
// hot-ish path: a read-locked map hit returning the
// pre-existing child. Callers that care about the 0 allocs/op
// contract resolve handles once (per tenant) and keep them,
// exactly like scalar metric handles; With itself does not allocate
// on the hit path.
type vec[M any] struct {
	name      string
	keys      []string
	mk        func() *M
	maxSeries int
	dropped   *Counter

	mu       sync.RWMutex
	children map[string]*vecChild[M]
	overflow *vecChild[M]
}

func newVec[M any](name string, keys []string, dropped *Counter, mk func() *M) *vec[M] {
	ks := make([]string, len(keys))
	copy(ks, keys)
	return &vec[M]{
		name:      name,
		keys:      ks,
		mk:        mk,
		maxSeries: DefaultMaxSeries,
		dropped:   dropped,
		children:  map[string]*vecChild[M]{},
	}
}

// with resolves the child metric for the given label values, interning
// a new child on first use. Once maxSeries distinct children exist,
// further novel combinations share a single overflow child (all label
// values OverflowLabel) and each such resolution increments the
// registry's obs.labels.dropped counter.
func (v *vec[M]) with(values []string) *M {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: vec %q got %d label values, want %d (%v)",
			v.name, len(values), len(v.keys), v.keys))
	}
	key := strings.Join(values, labelKeySep)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c.metric
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[key]; c != nil {
		return c.metric
	}
	if len(v.children) >= v.maxSeries {
		v.dropped.Inc()
		if v.overflow == nil {
			ov := make([]string, len(v.keys))
			for i := range ov {
				ov[i] = OverflowLabel
			}
			v.overflow = &vecChild[M]{values: ov, metric: v.mk()}
		}
		return v.overflow.metric
	}
	vals := make([]string, len(values))
	copy(vals, values)
	c = &vecChild[M]{values: vals, metric: v.mk()}
	v.children[key] = c
	return c.metric
}

// each calls f for every interned child, overflow child last. The
// read lock is held for the duration; f must not call back into the
// vec or the registry.
func (v *vec[M]) each(f func(values []string, m *M)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, c := range v.children {
		f(c.values, c.metric)
	}
	if v.overflow != nil {
		f(v.overflow.values, v.overflow.metric)
	}
}

// seriesName renders a flattened series identifier in Prometheus
// style — name{k1="v1",k2="v2"} — used as the key when vec children
// are merged into the flat snapshot maps. Values are escaped like
// Prometheus label values (backslash, quote, newline), so the
// rendered name is also directly usable in the text exposition.
func seriesName(name string, keys, values []string) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// HistogramVec is a family of Histograms (sharing one bucket layout)
// keyed by a fixed set of label keys.
type HistogramVec struct {
	v      *vec[Histogram]
	bounds []float64
}

// With returns the child histogram for the given label values,
// interning it on first use.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.v.with(values) }

// Name returns the vec's metric name.
func (hv *HistogramVec) Name() string { return hv.v.name }

// Keys returns a copy of the vec's label keys in registration order.
func (hv *HistogramVec) Keys() []string { return append([]string(nil), hv.v.keys...) }

// Bounds returns a copy of the shared bucket upper bounds.
func (hv *HistogramVec) Bounds() []float64 { return append([]float64(nil), hv.bounds...) }

func (hv *HistogramVec) capture(dst map[string]HistogramSnapshot, clear bool) {
	hv.v.each(func(values []string, h *Histogram) {
		dst[seriesName(hv.v.name, hv.v.keys, values)] = h.snapshot(clear)
	})
}
