package funcsim

import (
	"runtime"
	"sync"
	"testing"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// testWeights returns a deterministic multi-tile weight matrix with
// mixed signs and a deterministic input batch.
func testWorkload(seed uint64, in, out, batch int) (w, x *linalg.Dense) {
	r := linalg.NewRNG(seed)
	w = linalg.NewDense(in, out)
	for i := range w.Data {
		w.Data[i] = 2*r.Float64() - 1
	}
	x = linalg.NewDense(batch, in)
	for i := range x.Data {
		x.Data[i] = 2*r.Float64() - 1
	}
	return w, x
}

// mvmAt lowers w under the given model and executes one MVM at an
// explicit GOMAXPROCS and Config.Workers setting.
func mvmAt(t *testing.T, cfg Config, model Model, w, x *linalg.Dense, procs, workers int) (*linalg.Dense, Stats) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	cfg.Workers = workers
	eng, err := NewEngine(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	y, err := mat.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	return y, mat.Stats()
}

// checkDeterministic asserts the MVM result is bit-identical between a
// fully serial execution (Workers=1 at GOMAXPROCS=1) and parallel
// executions at full width and at a bounded in-flight count, and that
// the hardware-event counters agree exactly.
func checkDeterministic(t *testing.T, cfg Config, model Model, w, x *linalg.Dense) {
	t.Helper()
	serial, serialStats := mvmAt(t, cfg, model, w, x, 1, 1)
	n := runtime.NumCPU()
	for _, workers := range []int{0, 2} {
		par, parStats := mvmAt(t, cfg, model, w, x, n, workers)
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: output[%d] = %v, serial = %v — parallel merge is not bit-identical",
					workers, i, par.Data[i], serial.Data[i])
			}
		}
		if parStats != serialStats {
			t.Errorf("workers=%d: stats %+v != serial %+v", workers, parStats, serialStats)
		}
	}
}

// The parallel pipeline must be bit-identical to serial execution for
// every deterministic analog model (the saturating accumulator is not
// associative, so this holds only because the merge order is fixed).
func TestMVMDeterministicAcrossWorkersIdeal(t *testing.T) {
	cfg := exactConfig(8, 8)
	w, x := testWorkload(61, 20, 12, 5) // 3×2 tile grid
	checkDeterministic(t, cfg, Ideal{}, w, x)
}

func TestMVMDeterministicAcrossWorkersAnalytical(t *testing.T) {
	cfg := exactConfig(8, 8)
	w, x := testWorkload(62, 20, 12, 5)
	checkDeterministic(t, cfg, Analytical{Cfg: cfg.Xbar}, w, x)
}

func TestMVMDeterministicAcrossWorkersGENIEx(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar = harshXbar()
	gx := sharedHarshGENIEx(t)
	w, x := testWorkload(63, 20, 12, 4)
	checkDeterministic(t, cfg, GENIEx{Model: gx}, w, x)
}

func TestMVMDeterministicAcrossWorkersCircuit(t *testing.T) {
	if raceDetectorEnabled && testing.Short() {
		t.Skip("circuit solves under -race -short")
	}
	cfg := exactConfig(8, 8)
	// Tile tasks carry the parallelism; keep each batch solve serial.
	cfg.Xbar.BatchWorkers = 1
	w, x := testWorkload(64, 12, 10, 3) // 2×2 tile grid
	checkDeterministic(t, cfg, Circuit{Cfg: cfg.Xbar}, w, x)
}

// Intra-batch concurrency inside a circuit tile solve must be
// bit-identical at every BatchWorkers setting — serial, bounded, and
// all-cores — including nested under the tile-task fan-out. Each batch
// item is solved independently and merged by index, so the fan-out
// width can only change scheduling, never results. This is the
// invariant that lets funcsim-run's -batch-workers heuristic pick any
// value on correctness-neutral grounds (cost is the only criterion).
func TestMVMCircuitBatchWorkersBitIdentical(t *testing.T) {
	if raceDetectorEnabled && testing.Short() {
		t.Skip("circuit solves under -race -short")
	}
	cfg := exactConfig(8, 8)
	w, x := testWorkload(64, 12, 10, 3) // 2×2 tile grid
	cfg.Xbar.BatchWorkers = 1
	ref, refStats := mvmAt(t, cfg, Circuit{Cfg: cfg.Xbar}, w, x, 1, 1)
	for _, bw := range []int{0, 2} {
		for _, workers := range []int{1, 0} {
			cfg.Xbar.BatchWorkers = bw
			got, gotStats := mvmAt(t, cfg, Circuit{Cfg: cfg.Xbar}, w, x, runtime.NumCPU(), workers)
			for i := range ref.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("batch-workers=%d tile-workers=%d: output[%d] = %v, serial = %v — batch fan-out is not bit-identical",
						bw, workers, i, got.Data[i], ref.Data[i])
				}
			}
			if gotStats != refStats {
				t.Errorf("batch-workers=%d tile-workers=%d: stats %+v != serial %+v", bw, workers, gotStats, refStats)
			}
		}
	}
}

// Degraded circuit mode (failed batch items zeroed instead of failing
// the MVM) must also be schedule-independent.
func TestMVMDeterministicDegradedCircuit(t *testing.T) {
	if raceDetectorEnabled && testing.Short() {
		t.Skip("circuit solves under -race -short")
	}
	cfg := exactConfig(8, 8)
	cfg.Xbar.BatchWorkers = 1
	cfg.Xbar = cfg.Xbar.WithFaults(&xbar.FaultPlan{FailAttempts: 3, Items: []int{1}})
	w, x := testWorkload(65, 12, 10, 3)
	health := &SolverHealth{}
	checkDeterministic(t, cfg, Circuit{Cfg: cfg.Xbar, Degraded: true, Health: health}, w, x)
	if c := health.Counts(); c.Failed == 0 {
		t.Errorf("fault plan injected no failures: %v", c)
	}
}

// Concurrent MVMs on one Matrix must be race-free (run under -race)
// and the atomic counters must add up exactly: each identical call
// contributes the same per-call stats, folded once per MVM.
func TestConcurrentMVMStats(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(66, 20, 12, 4)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mat.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	perCall := mat.Stats()
	mat.ResetStats()

	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				y, err := mat.MVM(x)
				if err != nil {
					errs <- err
					return
				}
				for j := range ref.Data {
					if y.Data[j] != ref.Data[j] {
						t.Errorf("concurrent MVM diverged at %d", j)
						return
					}
				}
				_ = mat.Stats() // concurrent snapshot reads must be safe
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := mat.Stats()
	want := Stats{}
	for i := 0; i < goroutines*perG; i++ {
		want.Add(perCall)
	}
	if got != want {
		t.Errorf("stats after %d concurrent MVMs = %+v, want %+v", goroutines*perG, got, want)
	}
}

// The GENIEx fast path (per-block VContext + pooled fR buffers) must
// reproduce the plain per-tile Currents path bit for bit.
func TestGENIExSharedVContextMatchesDirect(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar = harshXbar()
	gx := sharedHarshGENIEx(t)
	g := linalg.NewDense(8, 8)
	r := linalg.NewRNG(67)
	for i := range g.Data {
		g.Data[i] = cfg.Xbar.Goff() + r.Float64()*(cfg.Xbar.Gon()-cfg.Xbar.Goff())
	}
	tile, err := GENIEx{Model: gx}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.NewDense(6, 8)
	for i := range v.Data {
		v.Data[i] = cfg.Xbar.Vsupply * r.Float64()
	}
	direct, err := tile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	st := tile.(surrogateTile)
	fast := linalg.NewDense(6, 8)
	if err := st.currentsVC(fast, v, gx.NewVContext(v)); err != nil {
		t.Fatal(err)
	}
	for i := range direct.Data {
		if fast.Data[i] != direct.Data[i] {
			t.Fatalf("fast path output[%d] = %v, direct = %v", i, fast.Data[i], direct.Data[i])
		}
	}
}

// Steady-state ideal-model and GENIEx MVMInto must allocate nothing
// once the matrix's run pool is warm — in serial mode and through the
// worker pool, with the always-on obs instrumentation (its cost
// contract: no metric op allocates). GENIEx input blocks refill their
// voltage contexts in place and its tiles pool their fR buffers.
func TestIdealMVMIntoSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates")
	}
	sur, err := core.NewModel(exactConfig(8, 8).Xbar, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{Ideal{}, GENIEx{Model: sur}} {
		for _, workers := range []int{1, 0} {
			cfg := exactConfig(8, 8)
			cfg.Workers = workers
			eng, err := NewEngine(cfg, model)
			if err != nil {
				t.Fatal(err)
			}
			w, x := testWorkload(68, 20, 12, 4)
			mat, err := eng.Lower(w)
			if err != nil {
				t.Fatal(err)
			}
			dst := linalg.NewDense(x.Rows, mat.Out())
			for i := 0; i < 5; i++ { // warm the run pool and the worker pool
				if err := mat.MVMInto(dst, x); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := mat.MVMInto(dst, x); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s workers=%d: steady-state MVMInto allocates %.1f objects per call, want 0",
					model.Name(), workers, allocs)
			}
		}
	}
}
