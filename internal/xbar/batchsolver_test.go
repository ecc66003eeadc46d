package xbar

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

func randomBatch(cfg Config, r *linalg.RNG, batch int) *linalg.Dense {
	vs := linalg.NewDense(batch, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	return vs
}

// solveReportInto solves vs into out on s with a fresh report.
func solveReportInto(s *BatchSolver, out, vs *linalg.Dense) (*BatchReport, error) {
	rep := &BatchReport{}
	if err := s.SolveReportIntoContext(nil, rep, out, vs); err != nil {
		return nil, err
	}
	return rep, nil
}

// solveReport solves vs on s into a fresh full-width output.
func solveReport(s *BatchSolver, vs *linalg.Dense) (*linalg.Dense, *BatchReport, error) {
	out := linalg.NewDense(vs.Rows, s.cfg.Cols)
	rep, err := solveReportInto(s, out, vs)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// A reusable BatchSolver must reproduce the one-shot BatchSolveReport
// result bit for bit across repeated calls, and keep its pool of
// programmed instances bounded instead of re-programming per call.
func TestBatchSolverReusesProgrammedInstances(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(50)
	g := randomLevels(cfg, r)
	vs := randomBatch(cfg, r, 6)

	want, wantRep, err := BatchSolveReport(cfg, g, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !wantRep.AllOK() {
		t.Fatalf("reference batch not clean: %v", wantRep)
	}

	s, err := NewBatchSolver(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, rep, err := solveReport(s, vs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !rep.AllOK() {
			t.Fatalf("round %d: %v", round, rep)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("round %d: output[%d] = %v, want %v", round, i, got.Data[i], want.Data[i])
			}
		}
		for b, o := range rep.Outcomes {
			w := wantRep.Outcomes[b]
			if o.Status != w.Status || o.NewtonIters != w.NewtonIters || o.Residual != w.Residual {
				t.Errorf("round %d item %d: outcome %+v, want %+v", round, b, o, w)
			}
		}
	}
	s.mu.Lock()
	idle := len(s.free)
	s.mu.Unlock()
	if idle < 1 {
		t.Error("solver pooled no programmed instances after use")
	}
	if max := runtime.GOMAXPROCS(0); idle > max {
		t.Errorf("solver pooled %d idle instances, want at most %d", idle, max)
	}
}

// BatchWorkers=1 must run fully serial and still match the parallel
// result bit for bit; into-style solving must not allocate a result.
func TestBatchSolverSerialWorkersMatch(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(51)
	g := randomLevels(cfg, r)
	vs := randomBatch(cfg, r, 5)

	parallel, _, err := BatchSolveReport(cfg, g, vs)
	if err != nil {
		t.Fatal(err)
	}

	cfg.BatchWorkers = 1
	s, err := NewBatchSolver(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	out := linalg.NewDense(vs.Rows, cfg.Cols)
	rep, err := solveReportInto(s, out, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllOK() {
		t.Fatalf("serial batch not clean: %v", rep)
	}
	for i := range parallel.Data {
		if out.Data[i] != parallel.Data[i] {
			t.Fatalf("output[%d]: serial %v != parallel %v", i, out.Data[i], parallel.Data[i])
		}
	}

	cfg.BatchWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative BatchWorkers passed validation")
	}
}

// An output narrower than Cols receives the leading currents of a
// full-width solve, bit for bit, on both paths: the block chord (a
// serial batch of nine runs lockstep blocks) and the one-item ladder
// (item 2's fault plan sends it there). A wider output is refused.
func TestBatchSolverNarrowOutput(t *testing.T) {
	cfg := smallConfig()
	cfg.BatchWorkers = 1
	r := linalg.NewRNG(52)
	g := randomLevels(cfg, r)
	vs := randomBatch(cfg, r, 9)
	s, err := NewBatchSolver(cfg.WithFaults(&FaultPlan{FailAttempts: 1, Items: []int{2}}), g)
	if err != nil {
		t.Fatal(err)
	}
	full, fullRep, err := solveReport(s, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !fullRep.AllOK() || fullRep.Recovered != 1 {
		t.Fatalf("full-width batch: %v, want all converged with item 2 recovered", fullRep)
	}
	for _, c := range []int{1, cfg.Cols - 3} {
		out := linalg.NewDense(vs.Rows, c)
		rep, err := solveReportInto(s, out, vs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Solved != fullRep.Solved || rep.Recovered != fullRep.Recovered || rep.NewtonIters != fullRep.NewtonIters {
			t.Errorf("width %d: %v, full width %v", c, rep, fullRep)
		}
		for b := 0; b < vs.Rows; b++ {
			for j, got := range out.Row(b) {
				if want := full.At(b, j); got != want {
					t.Fatalf("width %d: item %d current %d = %v, full width %v", c, b, j, got, want)
				}
			}
		}
	}
	if _, err := solveReportInto(s, linalg.NewDense(vs.Rows, cfg.Cols+1), vs); err == nil {
		t.Error("an output wider than the array was accepted")
	}
}

// Solution.MaxStep must report the length of the *applied* Newton
// update. When the damped rung backtracks, the accepted step is the
// shortened one — the solver once kept reporting the full-length
// Newton direction, over-stating MaxStep and feeding the wrong length
// to the stall test.
func TestMaxStepReportsAppliedStep(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(53)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)

	// Fail the plain rung so the damped rung runs, and force it to
	// backtrack after every update so convergence is always detected on
	// a shortened step. Half-length steps converge linearly instead of
	// quadratically, so give the rung a bigger Newton budget.
	xb, err := New(cfg.WithFaults(&FaultPlan{FailAttempts: 1, BacktrackEvery: true, MaxNewton: 500}))
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
	if sol.Recovery != "damped" {
		t.Fatalf("Recovery = %q, want damped", sol.Recovery)
	}
	if sol.DampedSteps == 0 {
		t.Fatal("forced backtracking never engaged")
	}

	// The solver's final iterate is volt = prev + scale·step: the
	// applied update. MaxStep must equal its length, not the length of
	// the full Newton direction held in step.
	var applied, full float64
	for n := range xb.volt {
		if d := math.Abs(xb.volt[n] - xb.prev[n]); d > applied {
			applied = d
		}
		if d := math.Abs(xb.step[n]); d > full {
			full = d
		}
	}
	if applied == 0 || full == 0 {
		t.Fatalf("degenerate final iterate: applied=%v full=%v", applied, full)
	}
	if applied >= full {
		t.Fatalf("backtrack did not shorten the step: applied %v, full %v", applied, full)
	}
	// Convergence is always detected right after a forced backtrack, so
	// the accepted scale is at most 1/2: the stale-tracking bug reported
	// the full length here.
	if sol.MaxStep > 0.5*full {
		t.Errorf("MaxStep = %v exceeds half the full Newton step %v: full length reported", sol.MaxStep, full)
	}
	// And it must match the measured applied update up to the rounding
	// of prev + scale·step − prev.
	if rel := math.Abs(sol.MaxStep-applied) / applied; rel > 1e-6 {
		t.Errorf("MaxStep = %v, want applied step %v (rel err %v, full step %v)", sol.MaxStep, applied, rel, full)
	}
}

// A successful batch item allocates nothing: each pooled instance
// fills its own reused Solution, so a call's allocations (the report
// and its Outcomes) do not grow with the batch size.
func TestBatchSolverItemsDoNotAllocate(t *testing.T) {
	cfg := smallConfig()
	cfg.BatchWorkers = 1
	r := linalg.NewRNG(55)
	s, err := NewBatchSolver(cfg, randomLevels(cfg, r))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(batch int) float64 {
		vs := randomBatch(cfg, r, batch)
		out := linalg.NewDense(batch, cfg.Cols)
		return testing.AllocsPerRun(10, func() {
			rep, err := solveReportInto(s, out, vs)
			if err != nil || !rep.AllOK() {
				t.Fatalf("batch %d: %v, %v", batch, err, rep)
			}
		})
	}
	if small, large := allocs(4), allocs(16); large != small {
		t.Errorf("allocations per call grow with the batch: %v at 4 items, %v at 16", small, large)
	}
}

// A NaN drive is an input error on the block path as on the one-item
// path: its item fails with the drive error, without a solve counted
// in xbar.solver.failures, and every other item matches a clean batch.
func TestBatchSolverRejectsNaNDrive(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(57)
	g := randomLevels(cfg, r)
	vs := randomBatch(cfg, r, 2*blockLanes(cfg))
	const bad = 5
	poisoned := vs.Clone()
	poisoned.Set(bad, 3, math.NaN())
	for _, workers := range []int{1, 2} {
		c := cfg
		c.BatchWorkers = workers
		s, err := NewBatchSolver(c, g)
		if err != nil {
			t.Fatal(err)
		}
		clean, _, err := solveReport(s, vs)
		if err != nil {
			t.Fatal(err)
		}
		failures0 := obs.Snapshot().Counters["xbar.solver.failures"]
		out, rep, err := solveReport(s, poisoned)
		if err != nil {
			t.Fatal(err)
		}
		if o := rep.Outcomes[bad]; o.Status != ItemFailed || o.Err == nil || errors.Is(o.Err, ErrNewtonDiverged) {
			t.Errorf("workers=%d: NaN item outcome %+v, want an input error", workers, o)
		}
		if d := obs.Snapshot().Counters["xbar.solver.failures"] - failures0; d != 0 {
			t.Errorf("workers=%d: xbar.solver.failures moved by %d, want 0", workers, d)
		}
		if rep.Failed != 1 {
			t.Errorf("workers=%d: report %v, want one failed item", workers, rep)
		}
		for b := 0; b < vs.Rows; b++ {
			for j, got := range out.Row(b) {
				want := clean.At(b, j)
				if b == bad {
					want = 0
				}
				if got != want {
					t.Fatalf("workers=%d item %d column %d: %v, want %v", workers, b, j, got, want)
				}
			}
		}
	}
}
