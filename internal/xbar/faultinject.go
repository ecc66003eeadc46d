package xbar

import (
	"geniex/internal/linalg"
	"geniex/internal/nonideal"
)

// Fault injection: deterministic hooks that force the circuit solver
// into its failure paths so tests can prove every rung of the recovery
// ladder is exercised, plus conductance-level stuck-at faults shared
// with the internal/nonideal component library. The hooks live behind
// Config.WithFaults; a nil plan costs a single pointer check per
// solve. Plans are JSON-serializable so chaos experiments and sweep
// scenarios can declare them in config files.

// FaultPlan describes which failures to force. The zero value injects
// nothing.
type FaultPlan struct {
	// FailAttempts forces the first N ladder attempts (0 = rung 0:
	// chord when seeded, plain Newton when cold; 1 = damped Newton,
	// 2 = source stepping) to report divergence even if they actually
	// converged. FailAttempts=1 proves the damped rung rescues the
	// solve, 2 proves source stepping does, 3 makes the whole ladder
	// fail.
	FailAttempts int `json:"fail_attempts,omitempty"`
	// CGBreakdownAt forces the inner CG solve of the given (1-based)
	// Newton update to report a breakdown, exercising the direct-LU
	// fallback. It applies to every ladder attempt that runs CG — a
	// cold rung 0, the damped rung, source stepping — of every solve
	// the plan covers; the seeded chord rung runs no CG.
	CGBreakdownAt int `json:"cg_breakdown_at,omitempty"`
	// BacktrackEvery forces the damped rung to backtrack every Newton
	// update once (halving the step) even when the KCL residual did not
	// increase, so tests can deterministically exercise the
	// damped-step accounting (Solution.MaxStep must report the applied
	// half-length step, and the stall test must compare it).
	BacktrackEvery bool `json:"backtrack_every,omitempty"`
	// NaNConductance poisons one device conductance with NaN in every
	// KCL evaluation, so the residual and the Jacobian stamps of every
	// rung carry it, simulating a corrupted conductance. No rung can
	// rescue this; the solver must detect it and fail loudly instead of
	// returning NaN currents.
	NaNConductance bool `json:"nan_conductance,omitempty"`
	// MaxNewton overrides the per-rung update budget (chord or Newton)
	// when positive, letting tests force genuine iteration-exhaustion
	// stalls cheaply.
	MaxNewton int `json:"max_newton,omitempty"`
	// Items restricts the plan to these batch item indices during
	// BatchSolve; nil applies it to every item (and to direct Solve
	// calls).
	Items []int `json:"items,omitempty"`

	// StuckAt, when non-nil, pins random cells to a conductance rail at
	// every Program call — real conductance faults rather than forced
	// solver failures. It is the shared nonideal.StuckAt component, so
	// the chaos layer and scenario sweeps inject identical fault
	// populations through one implementation.
	StuckAt *nonideal.StuckAt `json:"stuck_at,omitempty"`
	// StuckSeed drives the stuck-at mask deterministically. The mask is
	// a function of the seed alone, so reprogramming an array re-applies
	// the same faults — stuck cells stay stuck across weight updates,
	// as they do in hardware.
	StuckSeed uint64 `json:"stuck_seed,omitempty"`
}

// covers reports whether the plan applies to batch item b.
func (p *FaultPlan) covers(b int) bool {
	if p == nil {
		return false
	}
	if p.Items == nil {
		return true
	}
	for _, i := range p.Items {
		if i == b {
			return true
		}
	}
	return false
}

// applyStuck perturbs a conductance matrix about to be programmed,
// returning the number of pinned cells. g is the crossbar's private
// clone; mutation never reaches the caller's matrix.
func (p *FaultPlan) applyStuck(g *linalg.Dense, cfg Config) (int, error) {
	if p == nil || p.StuckAt == nil {
		return 0, nil
	}
	rep, err := nonideal.Stack{p.StuckAt}.Apply(g, EnvFromConfig(cfg), p.StuckSeed, 0)
	return rep.Stuck, err
}

// WithFaults returns a copy of the configuration carrying a
// fault-injection plan. Pass nil to clear.
func (c Config) WithFaults(p *FaultPlan) Config {
	c.faults = p
	return c
}

// Faults exposes the configured plan (nil when none); used by
// BatchSolve to scope the plan per item.
func (c Config) Faults() *FaultPlan { return c.faults }

// setFaults swaps the active plan on an existing crossbar, adjusting
// the update budget override. BatchSolve uses this to arm the plan only
// for the batch items it covers.
func (x *Crossbar) setFaults(p *FaultPlan) {
	x.faults = p
	x.maxNewton = defaultMaxNewton
	if p != nil && p.MaxNewton > 0 {
		x.maxNewton = p.MaxNewton
	}
}
