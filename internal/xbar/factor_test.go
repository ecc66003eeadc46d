package xbar

import (
	"math"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// relDiff is the largest relative per-column difference between two
// current vectors.
func relDiff(a, b []float64) float64 {
	worst := 0.0
	for j := range a {
		d := math.Abs(a[j]-b[j]) / (math.Abs(b[j]) + 1e-15)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// The structured factorization must solve the exact linearized MNA
// system: J₀·x = b for arbitrary right-hand sides, to direct-solver
// accuracy, across degenerate and non-square shapes.
func TestFactorSolvesLinearizedSystem(t *testing.T) {
	r := linalg.NewRNG(50)
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {4, 7}, {8, 8}, {5, 3}} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = dims[0], dims[1]
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(randomLevels(cfg, r)); err != nil {
			t.Fatal(err)
		}
		f, err := xb.buildFactor()
		if err != nil {
			t.Fatalf("%dx%d: buildFactor: %v", dims[0], dims[1], err)
		}
		// Assemble J₀ at the zero state (companion sources vanish, so
		// the stamp is exactly the linearized conductance matrix).
		n := xb.numNodes()
		xb.buildCoords(make([]float64, n))
		j0 := linalg.NewCSR(n, xb.coords)

		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		x := make([]float64, n)
		f.solveInto(x, b, newFactorScratch(cfg))

		res := make([]float64, n)
		j0.MulVec(x, res)
		for i := range res {
			res[i] -= b[i]
		}
		if rel := linalg.Norm2(res) / linalg.Norm2(b); rel > 1e-9 {
			t.Errorf("%dx%d: factorized solve residual %v", dims[0], dims[1], rel)
		}
	}
}

// The seeded default must agree with the legacy cold start to solver
// tolerance while spending no more Newton updates.
func TestSeededSolveMatchesCold(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(51)
	g := randomLevels(cfg, r)
	for trial := 0; trial < 4; trial++ {
		v := randomDrive(cfg, r)

		cold := cfg
		cold.Start = StartCold
		want := cleanSolve(t, cold, g, v)
		if want.Seeded {
			t.Fatal("cold solve reported a seeded start")
		}

		got := cleanSolve(t, cfg, g, v)
		if !got.Seeded {
			t.Fatal("default solve did not use the factorization seed")
		}
		if !got.Converged || got.Residual > kclOK {
			t.Fatalf("seeded solve: converged=%v residual=%v", got.Converged, got.Residual)
		}
		if d := relDiff(got.Currents, want.Currents); d > 1e-6 {
			t.Errorf("trial %d: seeded vs cold currents differ by %v", trial, d)
		}
		if got.NewtonIters > want.NewtonIters {
			t.Errorf("trial %d: seeded used %d Newton updates, cold used %d",
				trial, got.NewtonIters, want.NewtonIters)
		}
	}
}

// Reprogramming must invalidate the cached factorization: the next
// solve rebuilds it against the new conductances and matches a fresh
// instance exactly.
func TestFactorInvalidatedOnProgram(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(53)
	g1 := randomLevels(cfg, r)
	g2 := randomLevels(cfg, r)
	v := randomDrive(cfg, r)

	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g1); err != nil {
		t.Fatal(err)
	}
	before := obs.Snapshot()
	if _, err := xb.Solve(v); err != nil {
		t.Fatal(err)
	}
	mid := obs.Snapshot()
	if d := mid.Counters["xbar.solver.factor.builds"] - before.Counters["xbar.solver.factor.builds"]; d != 1 {
		t.Errorf("factor builds moved by %d after first solve, want 1", d)
	}
	if d := mid.Counters["xbar.solver.factor.reuses"] - before.Counters["xbar.solver.factor.reuses"]; d != 1 {
		t.Errorf("factor reuses moved by %d, want 1", d)
	}

	if err := xb.Program(g2); err != nil {
		t.Fatal(err)
	}
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Snapshot()
	if d := after.Counters["xbar.solver.factor.invalidations"] - mid.Counters["xbar.solver.factor.invalidations"]; d != 1 {
		t.Errorf("factor invalidations moved by %d after reprogram, want 1", d)
	}
	if d := after.Counters["xbar.solver.factor.builds"] - mid.Counters["xbar.solver.factor.builds"]; d != 1 {
		t.Errorf("factor builds moved by %d after reprogram, want 1", d)
	}

	want := cleanSolve(t, cfg, g2, v)
	for j := range want.Currents {
		if sol.Currents[j] != want.Currents[j] {
			t.Errorf("col %d: reprogrammed solve %v != fresh instance %v", j, sol.Currents[j], want.Currents[j])
		}
	}
}

// Satellite regression: the default seeded batch path stays
// bit-identical across worker counts with the factorization cache
// active, and the pooled instances share one factorization.
func TestSeededBatchDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(54)
	g := randomLevels(cfg, r)
	const batch = 12
	vs := linalg.NewDense(batch, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}

	solveAt := func(workers int) (*linalg.Dense, *BatchReport, int64, int64) {
		c := cfg
		c.BatchWorkers = workers
		before := obs.Snapshot()
		out, rep, err := BatchSolveReport(c, g, vs)
		if err != nil {
			t.Fatal(err)
		}
		after := obs.Snapshot()
		builds := after.Counters["xbar.solver.factor.builds"] - before.Counters["xbar.solver.factor.builds"]
		reuses := after.Counters["xbar.solver.factor.reuses"] - before.Counters["xbar.solver.factor.reuses"]
		return out, rep, builds, reuses
	}

	serial, serialRep, serialBuilds, serialReuses := solveAt(1)
	parallel, parallelRep, parallelBuilds, parallelReuses := solveAt(4)
	if serialBuilds != 1 || parallelBuilds != 1 {
		t.Errorf("factor builds = %d serial / %d parallel, want 1 each (pool shares the factor)",
			serialBuilds, parallelBuilds)
	}
	if serialReuses != batch || parallelReuses != batch {
		t.Errorf("factor reuses = %d serial / %d parallel, want %d each (cache active on every item)",
			serialReuses, parallelReuses, batch)
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("output[%d]: serial %v != parallel %v", i, serial.Data[i], parallel.Data[i])
		}
	}
	for b := 0; b < batch; b++ {
		s, p := serialRep.Outcomes[b], parallelRep.Outcomes[b]
		if s.NewtonIters != p.NewtonIters || s.CGIters != p.CGIters || s.Residual != p.Residual {
			t.Errorf("item %d: solver work differs across worker counts: %+v vs %+v", b, s, p)
		}
	}
}

// Validate accepts exactly StartSeeded and StartCold and rejects every
// other value, including the first one past StartCold.
func TestValidateStart(t *testing.T) {
	cfg := smallConfig()
	for _, s := range []SolverStart{StartSeeded, StartCold} {
		cfg.Start = s
		if err := cfg.Validate(); err != nil {
			t.Errorf("start %v rejected: %v", s, err)
		}
	}
	for _, s := range []SolverStart{-1, 2, 17} {
		cfg.Start = s
		if err := cfg.Validate(); err == nil {
			t.Errorf("expected validation error for start %d", int(s))
		}
	}
}
