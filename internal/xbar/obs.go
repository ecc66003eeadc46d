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
	// cg_iters observes the inner CG iterations, which only Newton
	// rungs run.
	mNewtonIters  = obs.NewHistogram("xbar.solver.newton_iters", obs.IterBuckets)
	mCGIters      = obs.NewHistogram("xbar.solver.cg_iters", obs.IterBuckets)
	mDampedSteps  = obs.NewCounter("xbar.solver.damped_steps")
	mCGBreakdowns = obs.NewCounter("xbar.solver.cg_breakdowns")
	mLUFallbacks  = obs.NewCounter("xbar.solver.lu_fallbacks")
	mUnconverged  = obs.NewCounter("xbar.solver.unconverged")

	// Rescue-rung counters: a categorical histogram over which ladder
	// rung produced each accepted solution.
	mRungNewton     = obs.NewCounter("xbar.solver.rung.newton")
	mRungDamped     = obs.NewCounter("xbar.solver.rung.damped")
	mRungSourceStep = obs.NewCounter("xbar.solver.rung.source_step")
	mRungBestEffort = obs.NewCounter("xbar.solver.rung.best_effort")

	// Factorization-cache counters: builds/invalidations follow the
	// Program lifecycle, and reuses counts seeded solves — each one
	// seeds rung 0 by a direct factorized solve and runs its chord
	// updates on the same cached factor.
	mFactorBuilds        = obs.NewCounter("xbar.solver.factor.builds")
	mFactorInvalidations = obs.NewCounter("xbar.solver.factor.invalidations")
	mFactorBuildFailures = obs.NewCounter("xbar.solver.factor.build_failures")
	mFactorReuses        = obs.NewCounter("xbar.solver.factor.reuses")

	mBatchCalls   = obs.NewCounter("xbar.batch.calls")
	mBatchItems   = obs.NewCounter("xbar.batch.items")
	mBatchRetried = obs.NewCounter("xbar.batch.retried")
	mBatchFailed  = obs.NewCounter("xbar.batch.failed")
	mBatchLatency = obs.NewHistogram("xbar.batch.latency_seconds", obs.LatencyBuckets)
)

// recordSolve folds one completed (or failed) circuit solve into the
// registry. The caller gates on obs.Enabled so a disabled registry
// costs one branch per solve.
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
	mCGIters.Observe(float64(sol.CGIters))
	mDampedSteps.Add(int64(sol.DampedSteps))
	mCGBreakdowns.Add(int64(sol.CGBreakdowns))
	mLUFallbacks.Add(int64(sol.LUFallbacks))
	if !sol.Converged {
		mUnconverged.Inc()
	}
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
func recordBatch(rep *BatchReport, start time.Time) {
	mBatchCalls.Inc()
	mBatchItems.Add(int64(len(rep.Outcomes)))
	mBatchRetried.Add(int64(rep.Retried))
	mBatchFailed.Add(int64(rep.Failed))
	mBatchLatency.ObserveSince(start)
}
