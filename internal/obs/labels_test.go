package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// With must intern one child per label-value combination and return
// the identical handle on every resolution, and the snapshot must
// flatten children under rendered name{k="v"} series keys.
func TestVecWithInternsChildren(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("vec.requests", []float64{1}, "tenant", "outcome")
	a := hv.With("acme", "ok")
	if b := hv.With("acme", "ok"); b != a {
		t.Error("same label values resolved to different children")
	}
	if b := hv.With("acme", "error"); b == a {
		t.Error("distinct label values resolved to the same child")
	}
	for i := 0; i < 3; i++ {
		a.Observe(0.5)
	}
	hv.With("acme", "error").Observe(0.5)

	s := r.Snapshot()
	if got := s.Histograms[`vec.requests{tenant="acme",outcome="ok"}`].Count; got != 3 {
		t.Errorf("ok series count = %d, want 3", got)
	}
	if got := s.Histograms[`vec.requests{tenant="acme",outcome="error"}`].Count; got != 1 {
		t.Errorf("error series count = %d, want 1", got)
	}
	if got, want := hv.Name(), "vec.requests"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	if got := hv.Keys(); len(got) != 2 || got[0] != "tenant" || got[1] != "outcome" {
		t.Errorf("Keys() = %v", got)
	}
}

// Label values are caller-controlled strings; the flattened series
// name must escape them like Prometheus label values so the snapshot
// key (and the text exposition) stays parseable.
func TestVecLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("vec.esc", []float64{1}, "who")
	hv.With(`a"b\c` + "\n").Observe(0.5)
	s := r.Snapshot()
	want := `vec.esc{who="a\"b\\c\n"}`
	if got := s.Histograms[want].Count; got != 1 {
		t.Errorf("escaped series missing: snapshot histograms = %v", s.Histograms)
	}
}

func TestVecWithArityPanics(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("vec.arity", []float64{1}, "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label-value count: expected panic")
		}
	}()
	hv.With("only-one")
}

// Past maxSeries distinct combinations, every novel resolution must
// share one overflow child (all values OverflowLabel) and bump the
// registry's obs.labels.dropped counter once per redirected With.
func TestVecCardinalityOverflow(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("vec.capped", []float64{1}, "tenant")
	hv.v.maxSeries = 2
	hv.With("a").Observe(0.5)
	hv.With("b").Observe(0.5)

	ov := hv.With("c")
	if ov2 := hv.With("d"); ov2 != ov {
		t.Error("overflow resolutions returned different children")
	}
	// Overflow combinations are never interned, so re-resolving "c"
	// counts as dropped again.
	if ov3 := hv.With("c"); ov3 != ov {
		t.Error("repeat overflow resolution returned a different child")
	}
	for i := 0; i < 3; i++ {
		ov.Observe(0.5)
	}

	s := r.Snapshot()
	if got := s.Histograms[`vec.capped{tenant="_overflow"}`].Count; got != 3 {
		t.Errorf("overflow series count = %d, want 3", got)
	}
	if got := s.Counters[labelsDroppedName]; got != 3 {
		t.Errorf("%s = %d, want 3 (one per redirected With)", labelsDroppedName, got)
	}
	// Interned children resolve without touching the dropped counter.
	hv.With("a").Observe(0.5)
	if got := r.Snapshot().Counters[labelsDroppedName]; got != 3 {
		t.Errorf("interned resolution bumped dropped counter to %d", got)
	}
}

// Concurrent With and observe — including resolutions past the
// cardinality cap — must lose no observations (run under -race as
// part of the race gate).
func TestVecConcurrentWithAndObserve(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("vec.conc", []float64{1, 2, 4}, "tenant")
	hv.v.maxSeries = 4

	const goroutines, perG, tenants = 16, 1000, 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				tenant := fmt.Sprintf("t%d", (id+j)%tenants)
				hv.With(tenant).Observe(float64(j % 5))
			}
		}(i)
	}
	wg.Wait()

	s := r.Snapshot()
	var observed int64
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "vec.conc{") {
			observed += h.Count
		}
	}
	if want := int64(goroutines * perG); observed != want {
		t.Errorf("histogram observations across children = %d, want %d", observed, want)
	}
	// Half the tenants exceeded the cap, so the dropped counter must
	// have registered redirections; the exact count depends on race
	// order of interning, but the overflow series must exist.
	if s.Counters[labelsDroppedName] == 0 {
		t.Error("no drops recorded despite tenants exceeding the cap")
	}
	if _, ok := s.Histograms[`vec.conc{tenant="_overflow"}`]; !ok {
		t.Error("overflow histogram series missing from snapshot")
	}
}

// Pre-resolved vec children are ordinary metrics: observing through a
// kept handle must not allocate, preserving the hot-path contract.
func TestVecChildOpsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("vec.alloc.h", LatencyBuckets, "tenant").With("acme")
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(1e-4)
		h.ObserveExemplar(1e-4, 7)
	})
	if allocs != 0 {
		t.Errorf("child metric ops allocate %.1f objects per run, want 0", allocs)
	}
}

// Every child of a HistogramVec shares the registered bucket layout.
func TestHistogramVecSharedBounds(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.5, 1, 2}
	hv := r.HistogramVec("vec.bounds", bounds, "tier")
	hv.With("ideal").Observe(0.7)
	hv.With("circuit").Observe(3)
	if got := hv.Bounds(); len(got) != 3 || got[0] != 0.5 || got[2] != 2 {
		t.Errorf("Bounds() = %v, want %v", got, bounds)
	}
	s := r.Snapshot()
	for _, name := range []string{`vec.bounds{tier="ideal"}`, `vec.bounds{tier="circuit"}`} {
		hs, ok := s.Histograms[name]
		if !ok {
			t.Fatalf("series %s missing", name)
		}
		if len(hs.Bounds) != 3 || hs.Bounds[1] != 1 {
			t.Errorf("%s bounds = %v, want %v", name, hs.Bounds, bounds)
		}
	}
}
