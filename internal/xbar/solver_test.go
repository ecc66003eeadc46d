package xbar

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// cleanSolve solves one workload without faults and returns the
// solution as the reference for the recovery tests.
func cleanSolve(t *testing.T, cfg Config, g *linalg.Dense, v []float64) *Solution {
	t.Helper()
	xb, err := New(cfg.WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func faultedSolve(t *testing.T, cfg Config, g *linalg.Dense, v []float64, p *FaultPlan) (*Solution, error) {
	t.Helper()
	xb, err := New(cfg.WithFaults(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	return xb.Solve(v)
}

// A clean solve at the nominal design point must converge on the
// ladder's first rung — chord updates on the cached factor — with a
// physically meaningful KCL residual.
func TestSolveReportsConvergence(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(20)
	sol := cleanSolve(t, cfg, randomLevels(cfg, r), randomDrive(cfg, r))
	if sol.Recovery != "" {
		t.Errorf("clean solve used recovery rung %q", sol.Recovery)
	}
	if !(sol.Residual >= 0) || sol.Residual > 1e-6 {
		t.Errorf("KCL residual %v not in [0, 1e-6]", sol.Residual)
	}
	if !sol.Seeded || sol.NewtonIters <= 0 {
		t.Errorf("seeded=%v newton=%d, want a seeded chord solve with updates", sol.Seeded, sol.NewtonIters)
	}
}

// Rung 1: with plain Newton forced to fail, the damped rung must
// rescue the solve and — since damping never triggers on a convergent
// iteration — reproduce the clean solution bit for bit. The damped
// rung always runs from a cold start, so the clean reference is pinned
// to StartCold; seeded-vs-cold agreement (to solver tolerance, not bit
// equality) is covered separately in factor_test.go.
func TestDampedRungRescues(t *testing.T) {
	cfg := smallConfig()
	cfg.Start = StartCold
	r := linalg.NewRNG(21)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)
	want := cleanSolve(t, cfg, g, v)

	sol, err := faultedSolve(t, cfg, g, v, &FaultPlan{FailAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Recovery != "damped" {
		t.Fatalf("Recovery = %q, want damped", sol.Recovery)
	}
	for j := range want.Currents {
		if sol.Currents[j] != want.Currents[j] {
			t.Errorf("col %d: damped %v != clean %v", j, sol.Currents[j], want.Currents[j])
		}
	}
}

// Rung 2: with both Newton rungs forced to fail, source-stepping
// continuation must still reach the same solution (within solver
// tolerance — the continuation path takes different iterates).
func TestSourceStepRungRescues(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(22)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)
	want := cleanSolve(t, cfg, g, v)

	sol, err := faultedSolve(t, cfg, g, v, &FaultPlan{FailAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Recovery != "source-step" {
		t.Fatalf("Recovery = %q, want source-step", sol.Recovery)
	}
	for j := range want.Currents {
		if rel := math.Abs(sol.Currents[j]-want.Currents[j]) / (math.Abs(want.Currents[j]) + 1e-15); rel > 1e-6 {
			t.Errorf("col %d: source-step %v vs clean %v (rel %v)", j, sol.Currents[j], want.Currents[j], rel)
		}
	}
}

// With the whole ladder forced to fail, the solve must return a typed
// error matching both sentinels, with diagnostics attached and all
// three rungs on record.
func TestLadderExhaustion(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(26)
	_, err := faultedSolve(t, cfg, randomLevels(cfg, r), randomDrive(cfg, r), &FaultPlan{FailAttempts: 3})
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Fatalf("error = %v, want ErrNewtonDiverged", err)
	}
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("error %v does not match linalg.ErrNoConvergence", err)
	}
	var nde *NewtonDivergedError
	if !errors.As(err, &nde) {
		t.Fatalf("error %T is not *NewtonDivergedError", err)
	}
	if nde.Iters <= 0 {
		t.Errorf("diagnostics missing iteration count: %+v", nde)
	}
	if !slices.Equal(nde.Attempts, []string{"newton", "damped", "source-step"}) {
		t.Errorf("attempts = %v, want all three rungs", nde.Attempts)
	}
}

// A genuine stall — a one-update budget per rung on a strongly
// non-linear netlist, no injected discard — must fail fast with the
// same typed error: both sentinels, and diagnostics that carry the
// updates spent and the unconverged residual.
func TestFailFastReturnsTypedDivergence(t *testing.T) {
	cfg := smallConfig()
	cfg.Vsupply = 0.5
	cfg.SelectorVsat = 0.05
	r := linalg.NewRNG(25)
	_, err := faultedSolve(t, cfg, randomLevels(cfg, r), randomDrive(cfg, r), &FaultPlan{MaxNewton: 1})
	if err == nil {
		t.Fatal("expected divergence error")
	}
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Errorf("error %v does not match ErrNewtonDiverged", err)
	}
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("error %v does not match linalg.ErrNoConvergence", err)
	}
	var nde *NewtonDivergedError
	if !errors.As(err, &nde) {
		t.Fatalf("error %T is not *NewtonDivergedError", err)
	}
	if nde.Iters <= 0 {
		t.Errorf("diagnostics missing iteration count: %+v", nde)
	}
	if !(nde.Residual > kclTol) {
		t.Errorf("diagnostics residual %v, want the unconverged residual above %v", nde.Residual, kclTol)
	}
	if !slices.Equal(nde.Attempts, []string{"newton", "damped", "source-step"}) {
		t.Errorf("attempts = %v, want all three rungs", nde.Attempts)
	}
}

// A NaN conductance stamp must be detected and reported as an error,
// never returned as NaN currents.
func TestNaNConductanceDetected(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(27)
	sol, err := faultedSolve(t, cfg, randomLevels(cfg, r), randomDrive(cfg, r), &FaultPlan{NaNConductance: true})
	if err == nil {
		t.Fatalf("NaN conductance produced a solution: %v", sol.Currents)
	}
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Errorf("error %v does not match ErrNewtonDiverged", err)
	}
}

// A genuine Newton stall — iteration budget exhausted on a strongly
// non-linear netlist (near-saturated selectors at elevated supply) —
// must be detected, not returned as a silently wrong answer: either
// the solve errors, or it returns a solution whose KCL residual
// actually is small.
func TestNewtonStallDetected(t *testing.T) {
	cfg := smallConfig()
	cfg.Vsupply = 0.5
	cfg.SelectorVsat = 0.05 // deep selector saturation: hard Newton problem
	r := linalg.NewRNG(28)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)

	// With a one-update budget no rung can converge from a cold start;
	// the solver must report the stall instead of the stale iterate.
	_, err := faultedSolve(t, cfg, g, v, &FaultPlan{MaxNewton: 1})
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Fatalf("starved solver returned %v, want ErrNewtonDiverged", err)
	}

	// With the full budget the ladder must solve the same hard problem
	// and stand behind the result.
	sol, err := faultedSolve(t, cfg, g, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Residual > 1e-6 {
		t.Errorf("hard problem: residual %v", sol.Residual)
	}
}

// Where J₀ stops describing the network — deeply saturated selectors
// at a doubled supply — the chord rung must stop contracting and hand
// over to the damped rung within a few updates instead of spending its
// whole budget. At the paper's 64×64 every damped update factors a
// 12,288-node Jacobian; -short skips that size.
func TestChordHandsOverToDamped(t *testing.T) {
	for _, n := range []int{8, 64} {
		if n == 64 && testing.Short() {
			continue
		}
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = n, n
		cfg.Vsupply = 0.5
		cfg.SelectorVsat = 0.02
		r := linalg.NewRNG(28)
		sol := cleanSolve(t, cfg, randomLevels(cfg, r), randomDrive(cfg, r))
		if sol.Recovery != "damped" {
			t.Fatalf("%dx%d: recovery = %q, want convergence through the damped rung", n, n, sol.Recovery)
		}
		if sol.NewtonIters >= 20 {
			t.Errorf("%dx%d: %d updates across the ladder, want < 20", n, n, sol.NewtonIters)
		}
	}
}

// BatchSolveReport with faults injected into a subset of items must
// fail exactly those items, zero their rows, and leave every surviving
// item bit-identical to a fault-free run.
func TestBatchSolveReportDegradedItems(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(29)
	g := randomLevels(cfg, r)
	const batch = 6
	vs := linalg.NewDense(batch, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	clean, cleanRep, err := BatchSolveReport(cfg, g, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRep.AllOK() || cleanRep.Solved != batch {
		t.Fatalf("clean batch unhealthy: %v", cleanRep)
	}

	bad := []int{1, 3}
	faulted := cfg.WithFaults(&FaultPlan{FailAttempts: 3, Items: bad})
	failures0 := obs.Snapshot().Counters["xbar.solver.failures"]
	out, rep, err := BatchSolveReport(faulted, g, vs)
	if err != nil {
		t.Fatal(err)
	}
	// A failed item has run the whole ladder once and is not solved
	// again: one failed solve per item.
	if d := obs.Snapshot().Counters["xbar.solver.failures"] - failures0; d != int64(len(bad)) {
		t.Errorf("xbar.solver.failures moved by %d, want %d (one per failed item)", d, len(bad))
	}
	if rep.Failed != len(bad) || rep.Solved != batch-len(bad) {
		t.Fatalf("report = %v, want %d failed", rep, len(bad))
	}
	for b := 0; b < batch; b++ {
		failed := b == 1 || b == 3
		if got := rep.Outcomes[b].Status == ItemFailed; got != failed {
			t.Errorf("item %d failed = %v, want %v", b, got, failed)
		}
		for j := 0; j < cfg.Cols; j++ {
			if failed {
				if out.At(b, j) != 0 {
					t.Errorf("failed item %d col %d: non-zero current %v", b, j, out.At(b, j))
				}
			} else if out.At(b, j) != clean.At(b, j) {
				t.Errorf("surviving item %d col %d: %v != clean %v", b, j, out.At(b, j), clean.At(b, j))
			}
		}
	}
	for _, b := range bad {
		o := rep.Outcomes[b]
		if o.Status != ItemFailed {
			t.Errorf("item %d outcome = %+v, want failed", b, o)
		}
		if !errors.Is(o.Err, ErrNewtonDiverged) {
			t.Errorf("item %d error %v does not match ErrNewtonDiverged", b, o.Err)
		}
	}
	// The strict gate must refuse the same batch with the first failed
	// item's error.
	if rep.AllOK() {
		t.Error("AllOK true with failed items")
	}
	err = rep.Err()
	if !errors.Is(err, ErrNewtonDiverged) || !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("Err() = %v, want ErrNewtonDiverged and linalg.ErrNoConvergence", err)
	}
	if err := cleanRep.Err(); err != nil {
		t.Errorf("clean batch Err() = %v", err)
	}
}

// An item rescued by a ladder rung must be marked ItemRecovered and
// counted in the aggregate.
func TestBatchSolveCountsRecoveredItems(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(31)
	g := randomLevels(cfg, r)
	vs := linalg.NewDense(3, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	faulted := cfg.WithFaults(&FaultPlan{FailAttempts: 1, Items: []int{0}})
	_, rep, err := BatchSolveReport(faulted, g, vs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.Failed != 0 {
		t.Fatalf("report = %v, want exactly one recovered item", rep)
	}
	if o := rep.Outcomes[0]; o.Status != ItemRecovered || o.Recovery != "damped" {
		t.Errorf("outcome = %+v, want recovered via damped rung", o)
	}
}

// Determinism guard: batch output — including items the damped rung
// rescued — must be byte-identical whether the batch runs on one
// worker or many.
func TestBatchSolveDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(32)
	g := randomLevels(cfg, r)
	const batch = 8
	vs := linalg.NewDense(batch, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	faulted := cfg.WithFaults(&FaultPlan{FailAttempts: 1, Items: []int{2, 5}})

	solveAt := func(procs int) (*linalg.Dense, *BatchReport) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		out, rep, err := BatchSolveReport(faulted, g, vs)
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}

	serial, serialRep := solveAt(1)
	parallel, parallelRep := solveAt(runtime.NumCPU())
	for _, rep := range []*BatchReport{serialRep, parallelRep} {
		for _, b := range []int{2, 5} {
			if o := rep.Outcomes[b]; o.Status != ItemRecovered || o.Recovery != "damped" {
				t.Fatalf("item %d outcome = %+v, want recovered by the damped rung", b, o)
			}
		}
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("output[%d]: serial %v != parallel %v", i, serial.Data[i], parallel.Data[i])
		}
	}
	for b := 0; b < batch; b++ {
		s, p := serialRep.Outcomes[b], parallelRep.Outcomes[b]
		if s != p {
			t.Errorf("item %d: outcomes differ: %+v vs %+v", b, s, p)
		}
	}
}
