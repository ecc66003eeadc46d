package xbar

import (
	"errors"
	"time"

	"geniex/internal/obs"
)

// Metric handles for the circuit solver, registered once in the
// process-wide obs registry. The full catalog is documented in
// DESIGN.md §7.
var (
	mSolves         = obs.NewCounter("xbar.solver.solves")
	mSolveFailures  = obs.NewCounter("xbar.solver.failures")
	mSolveCancelled = obs.NewCounter("xbar.solver.cancelled")
	mSolveLatency   = obs.NewHistogram("xbar.solver.latency_seconds", obs.LatencyBuckets)
	// newton_iters observes Solution.NewtonIters per solve: chord
	// updates on the seeded rung 0, Newton updates on every other rung.
	mNewtonIters = obs.NewHistogram("xbar.solver.newton_iters", obs.IterBuckets)

	// Rescue-rung counters: a categorical histogram over which ladder
	// rung produced each accepted solution.
	mRungNewton     = obs.NewCounter("xbar.solver.rung.newton")
	mRungDamped     = obs.NewCounter("xbar.solver.rung.damped")
	mRungSourceStep = obs.NewCounter("xbar.solver.rung.source_step")
	mRungBestEffort = obs.NewCounter("xbar.solver.rung.best_effort")

	// Zero-bias factorization-cache counters: builds/invalidations
	// follow the Program lifecycle, and reuses counts seeded solves —
	// each one seeds rung 0 by a direct factorized solve and runs its
	// chord updates on the same cached factor. The per-update Jacobian
	// factors of the Newton rungs are not counted.
	mFactorBuilds        = obs.NewCounter("xbar.solver.factor.builds")
	mFactorInvalidations = obs.NewCounter("xbar.solver.factor.invalidations")
	mFactorReuses        = obs.NewCounter("xbar.solver.factor.reuses")

	mBatchCalls = obs.NewCounter("xbar.batch.calls")
	mBatchItems = obs.NewCounter("xbar.batch.items")
)

// recordSolve folds one completed (or failed) circuit solve into the
// registry.
func recordSolve(sol *Solution, err error, start time.Time) {
	mSolves.Inc()
	mSolveLatency.ObserveSince(start)
	if err != nil {
		mSolveFailures.Inc()
		var nde *NewtonDivergedError
		if errors.As(err, &nde) {
			mNewtonIters.Observe(float64(nde.Iters))
		}
		return
	}
	if sol.Seeded {
		mFactorReuses.Inc()
	}
	mNewtonIters.Observe(float64(sol.NewtonIters))
	switch sol.Recovery {
	case "":
		mRungNewton.Inc()
	case "damped":
		mRungDamped.Inc()
	case "source-step":
		mRungSourceStep.Inc()
	case "best-effort":
		mRungBestEffort.Inc()
	}
}

// recordBatch folds one BatchSolver call into the registry.
func recordBatch(rep *BatchReport) {
	mBatchCalls.Inc()
	mBatchItems.Add(int64(len(rep.Outcomes)))
}
