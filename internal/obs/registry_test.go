package obs

import (
	"errors"
	"testing"
	"time"
)

// Every Try* registration must refuse a name held by a different
// metric kind with an error wrapping ErrDuplicateName.
func TestTryRegistrationCrossKindErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.TryCounter("taken"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind string
		try  func() error
	}{
		{"gauge", func() error { _, err := r.TryGauge("taken"); return err }},
		{"histogram", func() error { _, err := r.TryHistogram("taken", []float64{1}); return err }},
		{"histogram_vec", func() error { _, err := r.TryHistogramVec("taken", []float64{1}, "k"); return err }},
		{"slo", func() error { _, err := r.TrySLO("taken", SLOConfig{Objective: 0.9}); return err }},
	}
	for _, c := range cases {
		err := c.try()
		if err == nil {
			t.Errorf("%s registration of a counter name: want error", c.kind)
			continue
		}
		if !errors.Is(err, ErrDuplicateName) {
			t.Errorf("%s registration error %v does not wrap ErrDuplicateName", c.kind, err)
		}
	}
	// The failed claims must not have poisoned the name: the counter is
	// still resolvable.
	if _, err := r.TryCounter("taken"); err != nil {
		t.Errorf("counter no longer resolvable after failed cross-kind claims: %v", err)
	}
}

// The panicking registration wrappers must panic exactly where the
// Try* forms return an error.
func TestRegistrationPanicsOnConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("taken")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Gauge", func() { r.Gauge("taken") })
	mustPanic("Histogram", func() { r.Histogram("taken", []float64{1}) })
	mustPanic("HistogramVec", func() { r.HistogramVec("taken", []float64{1}, "k") })
	mustPanic("SLO", func() { r.SLO("taken", SLOConfig{Objective: 0.9}) })
}

// Re-registering a name with the same kind and shape is idempotent:
// the existing instance comes back, so hot-swapped components and
// tests can re-register safely.
func TestRegistrationIdempotentSameShape(t *testing.T) {
	r := NewRegistry()
	c1, _ := r.TryCounter("idem.c")
	c2, err := r.TryCounter("idem.c")
	if err != nil || c2 != c1 {
		t.Errorf("counter re-registration: got %p err %v, want %p", c2, err, c1)
	}
	hv1, _ := r.TryHistogramVec("idem.hv", []float64{1, 2}, "tier")
	hv2, err := r.TryHistogramVec("idem.hv", []float64{1, 2}, "tier")
	if err != nil || hv2 != hv1 {
		t.Errorf("histogram vec re-registration: got %p err %v, want %p", hv2, err, hv1)
	}
	s1, _ := r.TrySLO("idem.slo", SLOConfig{Objective: 0.99, Window: time.Minute})
	s2, err := r.TrySLO("idem.slo", SLOConfig{Objective: 0.99})
	if err != nil || s2 != s1 {
		t.Errorf("SLO re-registration: got %p err %v, want %p", s2, err, s1)
	}
}

// Same kind, different shape (vec label keys, histogram bounds) is a
// conflict: silently feeding two shapes into one series would corrupt
// the data, so it must surface ErrDuplicateName.
func TestRegistrationShapeMismatchErrors(t *testing.T) {
	r := NewRegistry()
	r.HistogramVec("shape.hv", []float64{1, 2}, "tenant", "outcome")
	if _, err := r.TryHistogramVec("shape.hv", []float64{1, 2}, "tenant"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("key-count mismatch: err = %v, want ErrDuplicateName", err)
	}
	if _, err := r.TryHistogramVec("shape.hv", []float64{1, 2}, "tenant", "tier"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("key-name mismatch: err = %v, want ErrDuplicateName", err)
	}
	if _, err := r.TryHistogramVec("shape.hv", []float64{1, 3}, "tenant", "outcome"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("vec bounds mismatch: err = %v, want ErrDuplicateName", err)
	}
	r.Histogram("shape.h", []float64{1, 2})
	if _, err := r.TryHistogram("shape.h", []float64{1}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("histogram bounds mismatch: err = %v, want ErrDuplicateName", err)
	}
}
