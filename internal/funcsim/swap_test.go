package funcsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"geniex/internal/core"
	"geniex/internal/linalg"
)

// swappableEngine lowers the test workload under a hot-swappable
// engine running the given model.
func swappableEngine(t *testing.T, model Model, workers int) (*Engine, *Matrix, *linalg.Dense) {
	t.Helper()
	cfg := exactConfig(8, 8)
	cfg.Workers = workers
	cfg.Swappable = true
	eng, err := NewEngine(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	w, x := testWorkload(77, 20, 12, 4) // 3×2 tile grid
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mat, x
}

// refMVM computes the reference output of the workload under a fixed
// model on its own non-swappable engine.
func refMVM(t *testing.T, model Model) *linalg.Dense {
	t.Helper()
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w, x := testWorkload(77, 20, 12, 4)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	y, err := mat.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// SwapModel on an engine built without Config.Swappable must refuse:
// conductances were not retained, so there is nothing to re-program.
func TestSwapModelNotSwappable(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.SwapModel(Analytical{Cfg: cfg.Xbar}); err == nil {
		t.Fatal("SwapModel on a non-swappable engine did not error")
	}
	if got := eng.ModelVersion(); got != 1 {
		t.Fatalf("version after refused swap = %d, want 1", got)
	}
}

// A hot-swap must atomically change what the matrix computes: after
// SwapModel the output is bit-identical to a fresh engine running the
// new model, the version advances, and swapping back restores the old
// output exactly.
func TestSwapModelChangesOutput(t *testing.T) {
	cfg := exactConfig(8, 8)
	idealRef := refMVM(t, Ideal{})
	analRef := refMVM(t, Analytical{Cfg: cfg.Xbar})

	eng, mat, x := swappableEngine(t, Ideal{}, 0)
	y, err := mat.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	if !sameData(y, idealRef) {
		t.Fatal("pre-swap output does not match the ideal reference")
	}
	if v := eng.ModelVersion(); v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}

	v, err := eng.SwapModel(Analytical{Cfg: cfg.Xbar})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || eng.ModelVersion() != 2 {
		t.Fatalf("version after swap = %d / %d, want 2", v, eng.ModelVersion())
	}
	if eng.ModelName() != (Analytical{}).Name() {
		t.Fatalf("ModelName after swap = %q", eng.ModelName())
	}
	if y, err = mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	if !sameData(y, analRef) {
		t.Fatal("post-swap output does not match the analytical reference")
	}

	if v, err = eng.SwapModel(Ideal{}); err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("version after second swap = %d, want 3", v)
	}
	if y, err = mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	if !sameData(y, idealRef) {
		t.Fatal("swap back did not restore the ideal output bit-for-bit")
	}
}

// Swapping between GENIEx surrogates of different Hidden widths: the
// pooled run's per-block voltage contexts regrow and shrink with the
// model, and each output matches its model's reference bit for bit.
func TestSwapModelGENIExHiddenChange(t *testing.T) {
	cfg := exactConfig(8, 8)
	var models []Model
	var refs []*linalg.Dense
	for _, hidden := range []int{12, 40} {
		sur, err := core.NewModel(cfg.Xbar, hidden, uint64(hidden))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, GENIEx{Model: sur})
		refs = append(refs, refMVM(t, models[len(models)-1]))
	}
	if sameData(refs[0], refs[1]) {
		t.Fatal("the two surrogates give the same output; the test cannot tell them apart")
	}
	eng, mat, x := swappableEngine(t, models[0], 1)
	for step, i := range []int{0, 1, 0} {
		if step > 0 {
			if _, err := eng.SwapModel(models[i]); err != nil {
				t.Fatal(err)
			}
		}
		y, err := mat.MVM(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameData(y, refs[i]) {
			t.Fatalf("step %d: output does not match the Hidden=%d reference", step, models[i].(GENIEx).Model.Hidden)
		}
	}
}

func sameData(a, b *linalg.Dense) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// Concurrent MVMs racing SwapModel: every result must bit-match one of
// the two models' reference outputs — never a mix of versions — and no
// MVM may fail or block. Run under -race this is also the memory-model
// gate for the acquire/publish/drain protocol.
func TestSwapModelConcurrentMVMs(t *testing.T) {
	cfg := exactConfig(8, 8)
	idealRef := refMVM(t, Ideal{})
	analRef := refMVM(t, Analytical{Cfg: cfg.Xbar})

	eng, mat, x := swappableEngine(t, Ideal{}, 0)

	const clients = 4
	iters := 40
	swaps := 24
	if raceDetectorEnabled {
		iters, swaps = 20, 12
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	mixed := make(chan int, clients*iters)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := linalg.NewDense(x.Rows, mat.Out())
			for i := 0; i < iters; i++ {
				if err := mat.MVMInto(y, x); err != nil {
					errs <- fmt.Errorf("MVM %d under swaps: %w", i, err)
					return
				}
				if !sameData(y, idealRef) && !sameData(y, analRef) {
					mixed <- i
					return
				}
			}
		}()
	}
	models := []Model{Analytical{Cfg: cfg.Xbar}, Ideal{}}
	prev := eng.ModelVersion()
	for s := 0; s < swaps; s++ {
		v, err := eng.SwapModel(models[s%2])
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("swap %d: version %d did not advance past %d", s, v, prev)
		}
		prev = v
	}
	wg.Wait()
	close(errs)
	close(mixed)
	for err := range errs {
		t.Error(err)
	}
	if i, ok := <-mixed; ok {
		t.Fatalf("MVM %d produced an output matching neither model — mixed-version evaluation", i)
	}
}

// gatedModel wraps a model so every tile evaluation announces itself
// and then blocks until the gate opens — a handle on an MVM caught
// mid-flight.
type gatedModel struct {
	inner Model
	enter chan struct{} // one send per tile evaluation start
	gate  chan struct{} // closed to release them
}

func (g gatedModel) Name() string { return "gated-" + g.inner.Name() }

func (g gatedModel) NewTile(gm *linalg.Dense) (Tile, error) {
	t, err := g.inner.NewTile(gm)
	if err != nil {
		return nil, err
	}
	return gatedTile{inner: t, enter: g.enter, gate: g.gate}, nil
}

type gatedTile struct {
	inner Tile
	enter chan struct{}
	gate  chan struct{}
}

func (t gatedTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	select {
	case t.enter <- struct{}{}:
	default:
	}
	<-t.gate
	return t.inner.Currents(v)
}

// SwapModel must not return until the in-flight MVMs of the retired
// version drain: catch an MVM blocked inside a tile evaluation, start
// a swap, and verify it completes only after the MVM is released.
func TestSwapModelDrainsInflight(t *testing.T) {
	enter := make(chan struct{}, 64)
	gate := make(chan struct{})
	eng, mat, x := swappableEngine(t, gatedModel{inner: Ideal{}, enter: enter, gate: gate}, 1)

	mvmDone := make(chan error, 1)
	go func() {
		_, err := mat.MVM(x)
		mvmDone <- err
	}()
	<-enter // an MVM is now pinned inside the version-1 tile set

	swapDone := make(chan int64, 1)
	go func() {
		v, err := eng.SwapModel(Ideal{})
		if err != nil {
			t.Error(err)
		}
		swapDone <- v
	}()

	select {
	case <-swapDone:
		t.Fatal("SwapModel returned while an MVM was still in flight on the old version")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if err := <-mvmDone; err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-swapDone:
		if v != 2 {
			t.Fatalf("drained swap published version %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SwapModel did not complete after the in-flight MVM drained")
	}
}

// A probe shadow-solve in flight across a swap must complete against
// valid conductances: the engine retains them outside the versioned
// tile sets, so queued probe jobs survive any number of model swaps.
func TestSwapDuringInflightProbeShadowSolve(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Workers = 1
	cfg.ProbeRate = 1
	cfg.Swappable = true
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w, x := testWorkload(77, 20, 12, 4)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}

	// Stall the probe worker so sampled jobs queue up, then swap the
	// model out from under them before letting the solver run.
	p := eng.Probe()
	release := make(chan struct{})
	p.setSolveHook(func(*probeJob) { <-release })
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SwapModel(Analytical{Cfg: cfg.Xbar}); err != nil {
		t.Fatal(err)
	}
	p.setSolveHook(nil)
	close(release)
	// The stalled job resumes under the hook; further samples solve for
	// real against the retained conductances.
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	if !p.Drain(30 * time.Second) {
		t.Fatal("probe did not drain after the swap")
	}
	s := p.Stats()
	if s.Failures != 0 {
		t.Fatalf("%d shadow-solves failed across the swap: %+v", s.Failures, s)
	}
	if s.Solved == 0 {
		t.Fatalf("no shadow-solves completed: %+v", s)
	}
}
