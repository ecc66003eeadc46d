package xbar

// Fault injection: deterministic hooks that force the circuit solver
// into its failure paths so tests can prove every rung of the recovery
// ladder is exercised. The hooks live behind Config.WithFaults; a nil
// plan costs a single pointer check per solve. Conductance faults
// (stuck cells, variation, drift) are not solver faults: they perturb
// the programmed array through a nonideal.Scenario (funcsim's
// Config.Scenario) instead.

// FaultPlan describes which solver failures to force. The zero value
// injects nothing.
type FaultPlan struct {
	// FailAttempts forces the first N ladder attempts (0 = rung 0:
	// chord when seeded, plain Newton when cold; 1 = damped Newton,
	// 2 = source stepping) to report divergence even if they actually
	// converged. FailAttempts=1 proves the damped rung rescues the
	// solve, 2 proves source stepping does, 3 makes the whole ladder
	// fail.
	FailAttempts int `json:"fail_attempts,omitempty"`
	// BacktrackEvery forces the damped rung to backtrack every Newton
	// update once (halving the step) even when the KCL residual did not
	// increase, so tests can deterministically exercise the
	// damped-step accounting (Solution.MaxStep must report the applied
	// half-length step, and the stall test must compare it).
	BacktrackEvery bool `json:"backtrack_every,omitempty"`
	// NaNConductance poisons one device conductance with NaN in every
	// KCL evaluation, so the residual of every rung and the Jacobian of
	// every Newton update carry it, simulating a corrupted conductance.
	// No rung can rescue this; the solver must detect it and fail
	// loudly instead of returning NaN currents.
	NaNConductance bool `json:"nan_conductance,omitempty"`
	// MaxNewton overrides the per-rung update budget (chord or Newton)
	// when positive, letting tests force genuine iteration-exhaustion
	// stalls cheaply.
	MaxNewton int `json:"max_newton,omitempty"`
	// Items restricts the plan to these batch item indices during
	// a batch solve; nil applies it to every item (and to direct Solve
	// calls). Through funcsim, a circuit tile's batch holds only the
	// live rows of its input block (the digit rows with a non-zero
	// digit), packed in (batch row, stream digit) order, so index 0 is
	// the first live row of each tile call, not the first batch row.
	Items []int `json:"items,omitempty"`
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

// WithFaults returns a copy of the configuration carrying a
// fault-injection plan. Pass nil to clear.
func (c Config) WithFaults(p *FaultPlan) Config {
	c.faults = p
	return c
}

// setFaults swaps the active plan on an existing crossbar, adjusting
// the update budget override. Batch solves use this to arm the plan only
// for the batch items it covers.
func (x *Crossbar) setFaults(p *FaultPlan) {
	x.faults = p
	x.maxNewton = defaultMaxNewton
	if p != nil && p.MaxNewton > 0 {
		x.maxNewton = p.MaxNewton
	}
}
