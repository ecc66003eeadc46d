package funcsim

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// faultedWorkload builds a small circuit-tile workload with a fault
// plan that makes the chosen batch items unsolvable.
func faultedWorkload(t *testing.T, items []int) (xbar.Config, *linalg.Dense, *linalg.Dense) {
	t.Helper()
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	r := linalg.NewRNG(40)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	v := linalg.NewDense(4, cfg.Rows)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * r.Float64()
	}
	return cfg.WithFaults(&xbar.FaultPlan{FailAttempts: 3, Items: items}), g, v
}

// A strict (non-degraded) circuit tile must fail the whole MVM when a
// batch item cannot be solved, with an error callers can classify via
// the convergence sentinels.
func TestCircuitTileSurfacesSolverFailure(t *testing.T) {
	cfg, g, v := faultedWorkload(t, []int{1})
	tile, err := Circuit{Cfg: cfg}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tile.Currents(v)
	if err == nil {
		t.Fatal("expected the failed batch item to fail the MVM")
	}
	if !errors.Is(err, xbar.ErrNewtonDiverged) {
		t.Errorf("error %v does not match xbar.ErrNewtonDiverged", err)
	}
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("error %v does not match linalg.ErrNoConvergence", err)
	}
}

// In degraded mode the tile must keep going: failed items get zero
// currents, surviving items are untouched, and the shared health
// collector records the damage.
func TestCircuitTileDegradedModeContinues(t *testing.T) {
	cfg, g, v := faultedWorkload(t, []int{1})
	health := &SolverHealth{}
	tile, err := Circuit{Cfg: cfg, Degraded: true, Health: health}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tile.Currents(v)
	if err != nil {
		t.Fatalf("degraded tile failed: %v", err)
	}

	cleanTile, err := Circuit{Cfg: cfg.WithFaults(nil)}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanTile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < v.Rows; b++ {
		for j := 0; j < out.Cols; j++ {
			if b == 1 {
				if out.At(b, j) != 0 {
					t.Errorf("failed item row %d col %d: non-zero current %v", b, j, out.At(b, j))
				}
			} else if out.At(b, j) != clean.At(b, j) {
				t.Errorf("surviving item %d col %d: %v != clean %v", b, j, out.At(b, j), clean.At(b, j))
			}
		}
	}

	c := health.Counts()
	if c.Batches != 1 || c.Items != int64(v.Rows) {
		t.Errorf("health = %+v, want 1 batch of %d items", c, v.Rows)
	}
	if c.Failed != 1 {
		t.Errorf("health.Failed = %d, want 1", c.Failed)
	}
	if !strings.Contains(c.String(), "1 failed") {
		t.Errorf("health summary %q does not mention the failure", c.String())
	}
}

// An item the damped rung rescues is a solution like any other: the
// degraded tile counts it as recovered, not failed, and its currents
// match a clean tile's bit for bit. The damped rung runs Newton from a
// cold start, so both tiles are pinned to StartCold.
func TestCircuitTileCountsRecoveredItem(t *testing.T) {
	cfg, g, v := faultedWorkload(t, nil)
	cfg.Start = xbar.StartCold
	health := &SolverHealth{}
	faulted := cfg.WithFaults(&xbar.FaultPlan{FailAttempts: 1, Items: []int{2}})
	tile, err := Circuit{Cfg: faulted, Degraded: true, Health: health}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	cleanTile, err := Circuit{Cfg: cfg.WithFaults(nil)}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanTile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Data {
		if out.Data[i] != clean.Data[i] {
			t.Fatalf("current %d: %v, clean tile %v", i, out.Data[i], clean.Data[i])
		}
	}
	if c := health.Counts(); c.Recovered != 1 || c.Failed != 0 || c.Items != int64(v.Rows) {
		t.Errorf("health = %+v, want 1 recovered and 0 failed of %d items", c, v.Rows)
	}
}

// A solver failure inside a lowered matrix must propagate through the
// full engine pipeline (tiling, bit slicing, differential passes) as
// an error — not as silently wrong activations.
func TestEngineSurfacesSolverFailure(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar = cfg.Xbar.WithFaults(&xbar.FaultPlan{FailAttempts: 3})
	eng, err := NewEngine(cfg, Circuit{Cfg: cfg.Xbar})
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.NewRNG(41)
	m, err := eng.Lower(randMatrix(r, 8, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.MVM(randMatrix(r, 2, 8, 4))
	if err == nil {
		t.Fatal("expected the engine MVM to surface the solver failure")
	}
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("error %v does not match linalg.ErrNoConvergence", err)
	}
}

// The same pipeline in degraded mode must complete the MVM and account
// for every failed item in the health counters.
func TestEngineDegradedModeCompletes(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar = cfg.Xbar.WithFaults(&xbar.FaultPlan{FailAttempts: 3})
	health := &SolverHealth{}
	eng, err := NewEngine(cfg, Circuit{Cfg: cfg.Xbar, Degraded: true, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.NewRNG(42)
	m, err := eng.Lower(randMatrix(r, 8, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.MVM(randMatrix(r, 2, 8, 4))
	if err != nil {
		t.Fatalf("degraded engine MVM failed: %v", err)
	}
	if out.Rows != 2 || out.Cols != 8 {
		t.Fatalf("output is %dx%d, want 2x8", out.Rows, out.Cols)
	}
	c := health.Counts()
	if c.Batches == 0 || c.Items == 0 {
		t.Fatalf("health recorded nothing: %+v", c)
	}
	if c.Failed != c.Items {
		t.Errorf("health = %+v, want every item failed under the all-item fault plan", c)
	}
}

// A circuit tile keeps its batch reports, so once a report has grown
// to the batch, a call allocates the same bytes at 4 items as at 64:
// nothing per item.
func TestCircuitTileReportsDoNotAllocatePerItem(t *testing.T) {
	cfg, g, _ := faultedWorkload(t, nil)
	cfg = cfg.WithFaults(nil)
	cfg.BatchWorkers = 1
	tile, err := Circuit{Cfg: cfg}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.NewRNG(41)
	bytesPerCall := func(items int) uint64 {
		v := linalg.NewDense(items, cfg.Rows)
		for i := range v.Data {
			v.Data[i] = cfg.Vsupply * r.Float64()
		}
		dst := linalg.NewDense(items, cfg.Cols)
		if err := currentsInto(nil, tile, dst, v, nil, cfg.Cols); err != nil { // warm the report
			t.Fatal(err)
		}
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := currentsInto(nil, tile, dst, v, nil, cfg.Cols); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	if small, large := bytesPerCall(4), bytesPerCall(64); large != small {
		t.Errorf("a call allocates %d B at 4 items but %d B at 64", small, large)
	}
}
