package xbar

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

const (
	// defaultMaxNewton is the iteration budget per ladder attempt:
	// chord updates on the seeded rung 0, Newton iterations elsewhere.
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
	// stepTol is the update length (volts) below which an iterate has
	// stopped moving: accepted if the residual meets kclOK, a stall
	// otherwise.
	stepTol = 1e-10
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
	// Iters is the total number of iterate updates (chord or Newton)
	// spent across all recovery attempts.
	Iters int
	// MaxStep is the max |Δv| (volts) of the last applied update (the
	// accepted, possibly damped, step).
	MaxStep float64
	// Residual is the final relative KCL residual.
	Residual float64
	// Attempts lists the ladder rungs tried, in order.
	Attempts []string
	// Cause is the first error that aborted a rung: a Jacobian the
	// factorization rejected (non-positive-definite, as a NaN
	// conductance makes it), which ends that rung but not the ladder.
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
	// NewtonIters is the number of iterate updates used, summed across
	// recovery attempts: chord updates on the seeded rung 0, Newton
	// updates on every other rung.
	NewtonIters int

	// Converged reports whether the solver met its tolerances. It is
	// false only under PolicyBestEffort — the other policies return an
	// error instead of an unconverged solution.
	Converged bool
	// Residual is the final relative KCL residual ‖F‖/‖rhs‖ — the
	// physical nodal current imbalance of the reported solution against
	// the drive injection plus the devices' companion sources.
	Residual float64
	// MaxStep is the max |Δv| (volts) of the last *applied* update:
	// when the damped rung backtracks, this is the accepted shortened
	// step, not the full-length Newton direction.
	MaxStep float64
	// Recovery names the ladder rung that produced the solution: ""
	// (rung 0: chord from the seed, or plain Newton from a cold
	// start), "damped", "source-step", or "best-effort" when nothing
	// converged under PolicyBestEffort.
	Recovery string
	// Seeded reports that rung 0 started from the factorized linear
	// solve at the programmed operating point and iterated on that
	// factor (chord), instead of running Newton from flat zero.
	Seeded bool
	// DampedSteps counts backtracked Newton steps.
	DampedSteps int
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
	return x.SolveContext(nil, v)
}

// SolveContext is Solve under cooperative cancellation: every rung
// checks ctx before each update and aborts — mid-ladder, before the
// next linear solve — as soon as the context is done, returning an
// error that matches ctx.Err() under errors.Is. A nil ctx behaves like
// Solve. Cancellation is how serving deadlines actually stop circuit
// work instead of letting an abandoned request keep iterating.
func (x *Crossbar) SolveContext(ctx context.Context, v []float64) (*Solution, error) {
	sol := &Solution{}
	if err := x.solve(ctx, v, x.cfg.Policy, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// canceled reports whether err stems from context cancellation or
// deadline expiry (as opposed to a genuine solver failure).
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// solve validates the drive vector, runs the recovery ladder under an
// explicit policy (BatchSolve retries override the configured one)
// into sol and records the solve in the obs registry. ctx may be nil
// (no cancellation). On error sol holds no result.
func (x *Crossbar) solve(ctx context.Context, v []float64, policy SolverPolicy, sol *Solution) error {
	if err := checkDrive(x.cfg, v); err != nil {
		return err
	}
	start := time.Now()
	region := obs.StartRegion("xbar.solve")
	err := x.runLadder(ctx, v, policy, sol)
	region.End()
	if err != nil && canceled(err) {
		mSolveCancelled.Inc()
		return err // cancellation is not a solver failure; skip recordSolve
	}
	recordSolve(sol, err, start)
	return err
}

// checkDrive rejects a drive vector of the wrong length or with a
// voltage outside [0, Vsupply], NaN included. Solve and WriteSPICE
// share it.
func checkDrive(cfg Config, v []float64) error {
	if len(v) != cfg.Rows {
		return fmt.Errorf("xbar: Solve with %d inputs on %d rows", len(v), cfg.Rows)
	}
	for i, vi := range v {
		if !(vi >= -1e-12 && vi <= cfg.Vsupply*(1+1e-9)) { // NaN fails both tests
			return fmt.Errorf("xbar: input %d voltage %g outside [0, %g]", i, vi, cfg.Vsupply)
		}
	}
	return nil
}

// rungs names the ladder's attempts in order, as NewtonDivergedError
// lists them; recoveries is what Solution.Recovery reports for each.
var (
	rungs      = [...]string{"newton", "damped", "source-step"}
	recoveries = [...]string{"", "damped", "source-step"}
)

// runLadder is the uninstrumented recovery ladder: rung 0 (chord from
// the factorized seed, or plain Newton from a cold start) → damped
// Newton → source stepping, with best-effort reporting under
// PolicyBestEffort. It fills the caller's sol, keeping the capacity of
// sol.Currents. A cancelled ctx aborts the ladder immediately —
// recovery rungs are never attempted for a caller that has gone away.
func (x *Crossbar) runLadder(ctx context.Context, v []float64, policy SolverPolicy, sol *Solution) error {
	*sol = Solution{Currents: sol.Currents}
	var cause error
	bestResid := math.Inf(1)
	for rung := range rungs {
		var ok bool
		var err error
		switch rung {
		case 0:
			ok, err = x.rung0(ctx, v, sol)
		case 1:
			// Damped Newton from a cold start: steps that increase the
			// KCL residual are backtracked along the Newton direction.
			// Far from the operating point (saturated selectors) the
			// Jacobian is no longer close to J₀, so the recovery rungs
			// are a different strategy from rung 0, not a retry of it.
			linalg.Fill(x.volt, 0)
			ok, err = x.newtonIterate(ctx, v, true, sol)
		case 2:
			// Source stepping: ramp the drive to its target in stages,
			// warm-starting each from the previous one.
			ok, err = x.sourceStep(ctx, v, sol)
		}
		if err != nil && canceled(err) {
			return err
		}
		if err != nil && cause == nil {
			cause = err
		}
		if ok && x.faults != nil && rung < x.faults.FailAttempts {
			ok = false // injected divergence: discard the result
			sol.Converged = false
		}
		if ok {
			x.finish(v, sol, recoveries[rung])
			return nil
		}
		if !math.IsNaN(sol.Residual) && sol.Residual < bestResid {
			bestResid = sol.Residual
			copy(x.best, x.volt)
		}
		if policy == PolicyFailFast {
			return x.diverged(sol, rung+1, cause)
		}
	}
	if policy == PolicyBestEffort && !math.IsInf(bestResid, 1) {
		copy(x.volt, x.best)
		sol.Converged = false
		sol.Residual = bestResid
		x.finish(v, sol, "best-effort")
		return nil
	}
	return x.diverged(sol, len(rungs), cause)
}

// rung0 is the ladder's first attempt. With the cached factorization
// (StartSeeded) it starts from the factorized seed and runs the chord
// iteration on the same factor; without one (StartCold, or a failed
// build) it runs plain Newton from flat zero.
func (x *Crossbar) rung0(ctx context.Context, v []float64, sol *Solution) (bool, error) {
	f := x.ensureFactor()
	if f == nil {
		linalg.Fill(x.volt, 0)
		return x.newtonIterate(ctx, v, false, sol)
	}
	f.seedInto(x.volt, v, x.factScr)
	sol.Seeded = true
	return x.chordIterate(ctx, v, f, sol)
}

// diverged builds the failure report after the first tried rungs.
func (x *Crossbar) diverged(sol *Solution, tried int, cause error) error {
	return &NewtonDivergedError{
		Iters:    sol.NewtonIters,
		MaxStep:  sol.MaxStep,
		Residual: sol.Residual,
		Attempts: append([]string(nil), rungs[:tried]...),
		Cause:    cause,
	}
}

// finish extracts currents and power from the solved node voltages,
// reusing the capacity of sol.Currents.
func (x *Crossbar) finish(v []float64, sol *Solution, recovery string) {
	cfg := x.cfg
	sol.Recovery = recovery
	gsrc := 1 / cfg.Rsource
	if cap(sol.Currents) < cfg.Cols {
		sol.Currents = make([]float64, cfg.Cols)
	}
	sol.Currents = sol.Currents[:cfg.Cols]
	x.currentsInto(sol.Currents, x.volt, 1)
	sol.Power = 0
	for i := 0; i < cfg.Rows; i++ {
		sol.Power += v[i] * (v[i] - x.volt[x.rNode(i, 0)]) * gsrc
	}
}

// currentsInto writes the sensed bit-line currents of an iterate into
// dst (length Cols); node n of the iterate is volt[n*ld].
func (x *Crossbar) currentsInto(dst, volt []float64, ld int) {
	gsnk := 1 / x.cfg.Rsink
	for j := range dst {
		dst[j] = gsnk * volt[x.cNode(x.cfg.Rows-1, j)*ld]
	}
}

// accepted is the acceptance test shared by every rung: the relative
// KCL residual meets kclTol, or the last applied step has vanished and
// the residual still meets the looser kclOK.
func accepted(resid, lastStep float64) bool {
	return resid <= kclTol || (lastStep < stepTol && resid <= kclOK)
}

// ctxErr reports a done ctx (nil means no cancellation) as the error
// that aborts a rung before its next update.
func ctxErr(ctx context.Context, update int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("xbar: solve cancelled at update %d: %w", update, err)
	}
	return nil
}

// chordIterate is the seeded rung 0: the chord (simplified Newton)
// iteration v ← v − J₀⁻¹·F(v) from the seed already in x.volt, where
// J₀ is the factored zero-bias Jacobian. Each update is one KCL
// evaluation and one back-substitution, with no refactoring. The
// iteration converges linearly at the rate J₀ approximates the
// Jacobian along the path, so it hands over to the recovery ladder as
// soon as an update fails to halve the relative residual (saturated
// devices) or the update budget runs out.
func (x *Crossbar) chordIterate(ctx context.Context, v []float64, f *opFactor, sol *Solution) (bool, error) {
	prevResid := math.Inf(1)
	lastStep := math.Inf(1)
	for update := 0; ; update++ {
		if err := ctxErr(ctx, update); err != nil {
			return false, err
		}
		resid := x.kcl(v, false)
		sol.Residual = resid
		if update > 0 {
			sol.MaxStep = lastStep
		}
		if accepted(resid, lastStep) {
			sol.Converged = true
			return true, nil
		}
		if !(resid <= prevResid/2) || update == x.maxNewton {
			return false, nil
		}
		f.solveInto(x.res, x.res, x.factScr)
		var maxStep float64
		for n, d := range x.res {
			x.volt[n] -= d
			if d = math.Abs(d); d > maxStep {
				maxStep = d
			}
		}
		lastStep = maxStep
		prevResid = resid
		sol.NewtonIters++
	}
}

// newtonIterate runs (optionally damped) Newton from the current
// contents of x.volt — callers choose the starting point — toward the
// drive vector v. Each update factors the Jacobian at the iterate
// (J₀'s structure with the devices' differential conductances; see
// opFactor.build) into the instance's own storage and takes
// v ← v − J(v)⁻¹·F(v) by back-substitution. It
// reports convergence; a non-nil error means the attempt aborted on a
// Jacobian the factorization rejected.
func (x *Crossbar) newtonIterate(ctx context.Context, v []float64, damped bool, sol *Solution) (bool, error) {
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
		// factorization instead of after the whole ladder.
		if err := ctxErr(ctx, update); err != nil {
			return false, err
		}
		resid := x.kcl(v, true)
		forced := x.faults != nil && x.faults.BacktrackEvery && scale == 1 && !math.IsInf(fullStep, 1)
		if damped && (resid > prevResid || forced) && scale > minDamping {
			// The last step increased the KCL residual: retreat to a
			// shorter step along the same Newton direction and
			// re-linearize there.
			scale *= 0.5
			for n := range x.volt {
				x.volt[n] = x.prev[n] - scale*x.step[n]
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
		if accepted(resid, lastStep) {
			sol.Converged = true
			return true, nil
		}
		if lastStep < stepTol {
			// Steps vanished while KCL is still violated: a stall the
			// pre-diagnostics solver would have returned silently.
			return false, nil
		}

		update++
		if x.jac == nil {
			x.jac = newOpFactor(x.cfg)
		}
		copy(x.jac.gsel, x.jsel)
		copy(x.jac.gcell, x.jcell)
		if err := x.jac.build(x.cfg); err != nil {
			return false, fmt.Errorf("xbar: Newton update %d: %w", update, err)
		}
		x.jac.solveInto(x.step, x.res, x.factScr)
		sol.NewtonIters++
		copy(x.prev, x.volt)
		var maxStep float64
		for n, d := range x.step {
			x.volt[n] -= d
			if d = math.Abs(d); d > maxStep {
				maxStep = d
			}
		}
		lastStep = maxStep
		fullStep = maxStep
		prevResid = resid
		scale = 1
	}
	return false, nil
}

// sourceStep is the continuation rung: it ramps the drive voltages to
// their targets in sourceSteps stages, solving each with damped Newton
// warm-started from the previous stage's solution.
func (x *Crossbar) sourceStep(ctx context.Context, v []float64, sol *Solution) (bool, error) {
	scaled := make([]float64, len(v)) // rare recovery path; allocation is fine
	linalg.Fill(x.volt, 0)
	ok := false
	for k := 1; k <= sourceSteps; k++ {
		f := float64(k) / sourceSteps
		for i := range v {
			scaled[i] = f * v[i]
		}
		var err error
		ok, err = x.newtonIterate(ctx, scaled, true, sol)
		if err != nil {
			return false, err
		}
		// An intermediate stage that fails still leaves a usable warm
		// start; only the final stage's convergence matters.
	}
	return ok, nil
}
