package xbar

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

const (
	// defaultMaxNewton is the Newton iteration budget per ladder
	// attempt.
	defaultMaxNewton = 60
	// kclTol is the relative KCL residual below which an iterate is
	// accepted as converged regardless of step size.
	kclTol = 1e-9
	// kclOK is the looser residual bound a step-converged solution must
	// still satisfy to be reported Converged — it is what turns a
	// silent stall (tiny steps, large nodal current imbalance) into a
	// detected failure.
	kclOK = 1e-6
	// sourceSteps is the number of continuation stages in the
	// source-stepping recovery rung.
	sourceSteps = 8
	// minDamping bounds how far the damped rung may shorten a Newton
	// step before accepting it anyway.
	minDamping = 1.0 / 64
)

// ErrNewtonDiverged is the sentinel matched by errors.Is when the
// circuit solver cannot converge. The concrete error is a
// *NewtonDivergedError carrying diagnostics. It also matches
// linalg.ErrNoConvergence so callers at the funcsim/experiments layer
// can test for non-convergence without importing solver internals.
var ErrNewtonDiverged = errors.New("xbar: Newton solver did not converge")

// NewtonDivergedError reports a failed circuit solve with the
// diagnostics needed to understand and reproduce it.
type NewtonDivergedError struct {
	// Iters is the total number of Newton updates spent across all
	// recovery attempts.
	Iters int
	// MaxStep is the max |Δv| (volts) of the last applied Newton
	// update (the accepted, possibly damped, step).
	MaxStep float64
	// Residual is the final relative KCL residual.
	Residual float64
	// Attempts lists the ladder rungs tried, in order.
	Attempts []string
	// Cause is the underlying linear-solver failure, if one aborted the
	// ladder (CG breakdown the direct fallback could not rescue, a
	// singular Jacobian, ...).
	Cause error
}

// Error implements error.
func (e *NewtonDivergedError) Error() string {
	msg := fmt.Sprintf("xbar: Newton solver did not converge after %d iterations (max step %.3g V, KCL residual %.3g; attempted %s)",
		e.Iters, e.MaxStep, e.Residual, strings.Join(e.Attempts, ", "))
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying linear-solver failure.
func (e *NewtonDivergedError) Unwrap() error { return e.Cause }

// Is reports sentinel identity for both ErrNewtonDiverged and
// linalg.ErrNoConvergence.
func (e *NewtonDivergedError) Is(target error) bool {
	return target == ErrNewtonDiverged || target == linalg.ErrNoConvergence
}

// Solution is the result of one circuit solve.
type Solution struct {
	// Currents are the sensed bit-line output currents (amperes),
	// positive flowing into the virtual ground; length Cols.
	Currents []float64
	// Power is the total power delivered by the word-line drivers
	// (watts) — by conservation, also the total dissipated in the
	// array, since the bit lines terminate at ground.
	Power float64
	// NewtonIters is the number of Newton updates used, summed across
	// recovery attempts.
	NewtonIters int
	// CGIters is the total number of inner CG iterations.
	CGIters int

	// Converged reports whether the solver met its tolerances. It is
	// false only under PolicyBestEffort — the other policies return an
	// error instead of an unconverged solution.
	Converged bool
	// Residual is the final relative KCL residual ‖J·v − rhs‖/‖rhs‖ —
	// the physical nodal current imbalance of the reported solution.
	Residual float64
	// MaxStep is the max |Δv| (volts) of the last *applied* Newton
	// update: when the damped rung backtracks, this is the accepted
	// shortened step, not the full-length Newton direction.
	MaxStep float64
	// Recovery names the ladder rung that produced the solution: ""
	// (plain Newton), "damped", "source-step", or "best-effort" when
	// nothing converged under PolicyBestEffort.
	Recovery string
	// Seeded reports that Newton started from the factorized linear
	// solve at the programmed operating point instead of flat zero.
	// Each seeded start replaces exactly one Newton update (the first
	// cold one computes the same linear solve, by CG) plus its inner
	// iterations.
	Seeded bool
	// DampedSteps counts backtracked Newton steps.
	DampedSteps int
	// LUFallbacks counts linear solves rescued by the direct-LU path
	// after CG failed.
	LUFallbacks int
	// CGBreakdowns counts CG SPD-guard trips.
	CGBreakdowns int
}

// Solve computes the non-ideal output currents for the given word-line
// drive voltages (length Rows, volts). Voltages may be any value in
// [0, Vsupply]; values outside are an error.
//
// Non-convergence handling follows the configured SolverPolicy: under
// PolicyFailFast the first failed attempt returns an error matching
// ErrNewtonDiverged; under PolicyRecover (the default) a ladder of
// damped Newton and source-stepping continuation is tried first; under
// PolicyBestEffort a failed ladder returns the lowest-residual iterate
// with Converged=false instead of an error.
func (x *Crossbar) Solve(v []float64) (*Solution, error) {
	return x.solve(nil, v, x.cfg.Policy)
}

// SolveContext is Solve under cooperative cancellation: the Newton
// iteration checks ctx between updates and aborts — mid-ladder, before
// the next linear solve — as soon as the context is done, returning an
// error that matches ctx.Err() under errors.Is. A nil ctx behaves like
// Solve. Cancellation is how serving deadlines actually stop circuit
// work instead of letting an abandoned request keep burning CG
// iterations.
func (x *Crossbar) SolveContext(ctx context.Context, v []float64) (*Solution, error) {
	return x.solve(ctx, v, x.cfg.Policy)
}

// canceled reports whether err stems from context cancellation or
// deadline expiry (as opposed to a genuine solver failure).
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// solve validates the drive vector, runs the recovery ladder under an
// explicit policy (BatchSolve retries override the configured one) and
// records the solve in the obs registry. ctx may be nil (no
// cancellation).
func (x *Crossbar) solve(ctx context.Context, v []float64, policy SolverPolicy) (*Solution, error) {
	cfg := x.cfg
	if len(v) != cfg.Rows {
		return nil, fmt.Errorf("xbar: Solve with %d inputs on %d rows", len(v), cfg.Rows)
	}
	for i, vi := range v {
		if vi < -1e-12 || vi > cfg.Vsupply*(1+1e-9) {
			return nil, fmt.Errorf("xbar: input %d voltage %g outside [0, %g]", i, vi, cfg.Vsupply)
		}
	}
	start := obs.Now()
	region := obs.StartRegion("xbar.solve")
	sol, err := x.runLadder(ctx, v, policy)
	region.End()
	if err != nil && canceled(err) {
		if obs.Enabled() {
			mSolveCancelled.Inc()
		}
		return nil, err // cancellation is not a solver failure; skip recordSolve
	}
	if obs.Enabled() {
		recordSolve(sol, err, start)
	}
	return sol, err
}

// runLadder is the uninstrumented recovery ladder: plain Newton →
// damped Newton → source stepping, with best-effort reporting under
// PolicyBestEffort. A cancelled ctx aborts the ladder immediately —
// recovery rungs are never attempted for a caller that has gone away.
func (x *Crossbar) runLadder(ctx context.Context, v []float64, policy SolverPolicy) (*Solution, error) {
	sol := &Solution{}
	var attempts []string
	var cause error
	bestResid := math.Inf(1)
	haveBest := false

	// record applies the fault-injection attempt gate and tracks the
	// lowest-residual iterate for best-effort reporting.
	record := func(ok bool, attempt int, name string) bool {
		if ok && x.faults != nil && attempt < x.faults.FailAttempts {
			ok = false // injected divergence: discard the result
			sol.Converged = false
		}
		attempts = append(attempts, name)
		if !ok && !math.IsNaN(sol.Residual) && sol.Residual < bestResid {
			bestResid = sol.Residual
			copy(x.best, x.volt)
			haveBest = true
		}
		return ok
	}

	// Rung 0: plain Newton. The starting point follows Config.Start —
	// the factorized operating-point seed by default, flat zero under
	// StartCold — and the cached factorization preconditions the inner
	// CG solves whenever it is available.
	x.startRung0(v, sol)
	ok, err := x.newtonIterate(ctx, v, false, policy, sol)
	// Recovery rungs keep the legacy cold-start Jacobi-CG path: their
	// value is being a *different* strategy from the one that just
	// failed, and the Jacobian far from the operating point (saturated
	// selectors, source-stepping continuation) is no longer close to J₀.
	x.activePrecond = nil
	if err != nil && canceled(err) {
		return nil, err
	}
	if record(ok, 0, "newton") {
		return x.finish(v, sol, ""), nil
	}
	cause = err
	if policy == PolicyFailFast {
		if err != nil {
			return nil, err
		}
		return nil, x.diverged(sol, attempts, cause)
	}

	// Rung 1: damped Newton — same cold start, but steps that increase
	// the KCL residual are backtracked along the Newton direction.
	linalg.Fill(x.volt, 0)
	ok, err = x.newtonIterate(ctx, v, true, policy, sol)
	if err != nil && canceled(err) {
		return nil, err
	}
	if err != nil && cause == nil {
		cause = err
	}
	if record(ok, 1, "damped") {
		return x.finish(v, sol, "damped"), nil
	}

	// Rung 2: source stepping — ramp the drive to its target in stages,
	// warm-starting each stage from the previous one. Continuation
	// keeps every stage inside Newton's convergence basin.
	ok, err = x.sourceStep(ctx, v, policy, sol)
	if err != nil && canceled(err) {
		return nil, err
	}
	if err != nil && cause == nil {
		cause = err
	}
	if record(ok, 2, "source-step") {
		return x.finish(v, sol, "source-step"), nil
	}

	if policy == PolicyBestEffort && haveBest {
		copy(x.volt, x.best)
		sol.Converged = false
		sol.Residual = bestResid
		return x.finish(v, sol, "best-effort"), nil
	}
	return nil, x.diverged(sol, attempts, cause)
}

// startRung0 loads the rung-0 Newton starting point into x.volt per
// Config.Start and arms the factorization preconditioner for the
// attempt. With no factorization available (StartCold, or a build
// failure) it falls back to the legacy flat-zero start.
func (x *Crossbar) startRung0(v []float64, sol *Solution) {
	x.activePrecond = nil
	f := x.ensureFactor()
	if f == nil {
		linalg.Fill(x.volt, 0)
		return
	}
	x.activePrecond = x.precond
	f.seedInto(x.volt, v, x.factScr)
	sol.Seeded = true
}

func (x *Crossbar) diverged(sol *Solution, attempts []string, cause error) error {
	return &NewtonDivergedError{
		Iters:    sol.NewtonIters,
		MaxStep:  sol.MaxStep,
		Residual: sol.Residual,
		Attempts: attempts,
		Cause:    cause,
	}
}

// finish extracts currents and power from the solved node voltages.
func (x *Crossbar) finish(v []float64, sol *Solution, recovery string) *Solution {
	cfg := x.cfg
	sol.Recovery = recovery
	gsnk := 1 / cfg.Rsink
	gsrc := 1 / cfg.Rsource
	sol.Currents = make([]float64, cfg.Cols)
	for j := 0; j < cfg.Cols; j++ {
		sol.Currents[j] = gsnk * x.volt[x.cNode(cfg.Rows-1, j)]
	}
	sol.Power = 0
	for i := 0; i < cfg.Rows; i++ {
		sol.Power += v[i] * (v[i] - x.volt[x.rNode(i, 0)]) * gsrc
	}
	return sol
}

// assemble linearizes the network at the current x.volt and loads the
// source injections, leaving the Jacobian in x.pattern and the RHS in
// x.rhs.
func (x *Crossbar) assemble(v []float64) {
	x.buildCoords(x.volt)
	gsrc := 1 / x.cfg.Rsource
	for i := 0; i < x.cfg.Rows; i++ {
		x.rhs[x.rNode(i, 0)] += gsrc * v[i]
	}
	if x.faults != nil && x.faults.NaNConductance && len(x.coords) > 0 {
		x.coords[0].Val = math.NaN()
	}
	x.pattern.Update(x.coords)
}

// kclResidual measures the nodal current imbalance of the current
// iterate against the freshly assembled system: ‖J·v − rhs‖ relative
// to ‖rhs‖. With the Newton companion model this is exactly the KCL
// violation of the non-linear network at x.volt.
func (x *Crossbar) kclResidual() float64 {
	x.pattern.Matrix().MulVec(x.volt, x.res)
	for i := range x.res {
		x.res[i] -= x.rhs[i]
	}
	rnorm := linalg.Norm2(x.res)
	bnorm := linalg.Norm2(x.rhs)
	if bnorm == 0 {
		return rnorm
	}
	return rnorm / bnorm
}

// newtonIterate runs (optionally damped) Newton from the current
// contents of x.volt — callers choose the starting point — toward the
// drive vector v. It reports convergence; a non-nil error means the
// attempt aborted on a linear-solver failure that the LU fallback
// could not rescue.
func (x *Crossbar) newtonIterate(ctx context.Context, v []float64, damped bool, policy SolverPolicy, sol *Solution) (bool, error) {
	prevResid := math.Inf(1)
	// lastStep is the max |Δv| of the last *applied* update — after a
	// damped backtrack this is the shortened step, not the full Newton
	// step. Both the convergence/stall tests and the reported
	// Solution.MaxStep use the applied length; tracking the full length
	// here once over-reported MaxStep and made the stall test compare
	// the wrong step.
	lastStep := math.Inf(1)
	fullStep := math.Inf(1) // length of the undamped Newton step
	scale := 1.0
	update := 0
	for iter := 0; iter < x.maxNewton; iter++ {
		// Cooperative cancellation: one cheap Err check per Newton
		// update, so a revoked deadline stops the solve before its next
		// linear system instead of after the whole ladder.
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return false, fmt.Errorf("xbar: solve cancelled at Newton update %d: %w", update, cerr)
			}
		}
		x.assemble(v)
		resid := x.kclResidual()
		forced := x.faults != nil && x.faults.BacktrackEvery && scale == 1 && !math.IsInf(fullStep, 1)
		if damped && (resid > prevResid || forced) && scale > minDamping {
			// The last step increased the KCL residual: retreat to a
			// shorter step along the same Newton direction and
			// re-linearize there.
			scale *= 0.5
			for n := range x.volt {
				x.volt[n] = x.prev[n] + scale*x.step[n]
			}
			lastStep = scale * fullStep
			sol.DampedSteps++
			continue
		}
		sol.Residual = resid
		if math.IsInf(lastStep, 1) {
			sol.MaxStep = 0 // converged before any update (e.g. zero drive)
		} else {
			sol.MaxStep = lastStep
		}
		if resid <= kclTol || (lastStep < x.tolV && resid <= kclOK) {
			sol.Converged = true
			return true, nil
		}
		if lastStep < x.tolV {
			// Steps vanished while KCL is still violated: a stall the
			// pre-diagnostics solver would have returned silently.
			return false, nil
		}

		// Solve J·vNew = rhs for the Newton update: CG with the current
		// iterate as warm start, direct LU when CG cannot.
		update++
		copy(x.delta, x.volt)
		var stats linalg.CGStats
		var err error
		if x.faults != nil && x.faults.CGBreakdownAt == update {
			err = &linalg.BreakdownError{Iteration: 1, PAP: -1} // injected
		} else {
			opt := linalg.CGOptions{Tol: 1e-12}
			if x.activePrecond != nil {
				opt.Precond = x.activePrecond
			}
			stats, err = linalg.SolveCG(x.pattern.Matrix(), x.rhs, x.delta, x.ws, opt)
		}
		sol.CGIters += stats.Iterations
		sol.NewtonIters++
		if err != nil {
			if errors.Is(err, linalg.ErrBreakdown) {
				sol.CGBreakdowns++
			}
			if policy == PolicyFailFast {
				return false, fmt.Errorf("xbar: Newton update %d: %w", update, err)
			}
			direct, derr := linalg.SolveDirect(x.pattern.Matrix(), x.rhs)
			if derr != nil {
				return false, fmt.Errorf("xbar: Newton update %d: CG failed (%v); direct fallback: %w", update, err, derr)
			}
			copy(x.delta, direct)
			sol.LUFallbacks++
		}

		copy(x.prev, x.volt)
		var maxStep float64
		for n := range x.volt {
			d := x.delta[n] - x.volt[n]
			x.step[n] = d
			if d = math.Abs(d); d > maxStep {
				maxStep = d
			}
		}
		lastStep = maxStep
		fullStep = maxStep
		prevResid = resid
		scale = 1
		copy(x.volt, x.delta)
	}
	return false, nil
}

// sourceStep is the continuation rung: it ramps the drive voltages to
// their targets in sourceSteps stages, solving each with damped Newton
// warm-started from the previous stage's solution.
func (x *Crossbar) sourceStep(ctx context.Context, v []float64, policy SolverPolicy, sol *Solution) (bool, error) {
	scaled := make([]float64, len(v)) // rare recovery path; allocation is fine
	linalg.Fill(x.volt, 0)
	ok := false
	for k := 1; k <= sourceSteps; k++ {
		f := float64(k) / sourceSteps
		for i := range v {
			scaled[i] = f * v[i]
		}
		var err error
		ok, err = x.newtonIterate(ctx, scaled, true, policy, sol)
		if err != nil {
			return false, err
		}
		// An intermediate stage that fails still leaves a usable warm
		// start; only the final stage's convergence matters.
	}
	return ok, nil
}
