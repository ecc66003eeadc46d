// Package xbar simulates non-ideal memristive crossbars at the circuit
// level. It is the repository's substitute for the paper's HSPICE
// decks: the same netlist topology (word lines and bit lines with
// source, sink and wire parasitics; an access device and an RRAM cell
// at every junction) solved by modified nodal analysis. Every linear
// solve goes through one direct factorization of the MNA Jacobian
// along the netlist's structure. The default solve starts from the
// direct solution of the zero-bias linearized network and iterates on
// its cached factorization (the chord method, v ← v − J₀⁻¹·F(v));
// damped Newton–Raphson, v ← v − J(v)⁻¹·F(v) with J(v) factored the
// same way at each iterate, then source stepping, are the recovery
// ladder behind it.
//
// Three models of the same crossbar are exposed:
//
//   - Ideal: I = Gᵀ·V, the error-free MVM.
//   - Analytical: the netlist with all devices replaced by linear
//     resistors — exactly the class of model the paper uses as its
//     baseline (captures parasitic IR drop, misses data-dependent
//     device non-linearity). Because that network is linear, it also
//     collapses to a precomputable distortion matrix A(G) with
//     I = A·V (the matrix-inversion formulation of CxDNN).
//   - Circuit: the full non-linear netlist (sinh RRAM + saturating
//     selector), the stand-in for HSPICE ground truth.
package xbar

import (
	"fmt"

	"geniex/internal/device"
	"geniex/internal/nonideal"
)

// SolverStart selects how the circuit solver's first rung runs. The
// zero value is StartSeeded: the per-programming MNA factorization
// solves the linearized network at the programmed operating point, and
// the chord iteration on the same factor takes it from there instead
// of Newton from flat zero. The seed is a pure function of the
// programmed conductances and the drive vector — it is exactly the
// first cold Newton iterate — and so is every chord update, so the
// default path stays bit-reproducible at any worker count.
type SolverStart int

const (
	// StartSeeded (the default) starts from the factorized linear solve
	// at the programmed operating point and iterates on that factor.
	// Deterministic: results depend only on (conductances, drive),
	// never on solve history or scheduling.
	StartSeeded SolverStart = iota
	// StartCold runs Newton from the flat zero state, each update
	// through the Jacobian factored at its iterate. No zero-bias factor
	// is cached; it is the reference the seeded path is checked
	// against.
	StartCold
)

// String implements fmt.Stringer.
func (s SolverStart) String() string {
	switch s {
	case StartSeeded:
		return "seeded"
	case StartCold:
		return "cold"
	}
	return fmt.Sprintf("SolverStart(%d)", int(s))
}

// Config describes a crossbar design point. The defaults follow the
// paper's experimental methodology (Section 6).
type Config struct {
	// Rows and Cols give the crossbar dimensions (rows = word lines =
	// inputs, cols = bit lines = outputs).
	Rows, Cols int

	// Ron is the device resistance in the fully-ON state (ohms).
	Ron float64
	// OnOffRatio is Roff/Ron; conductances are mapped into
	// [1/Roff, 1/Ron].
	OnOffRatio float64

	// Parasitics (ohms). Rwire is per cell segment of metal line.
	Rsource, Rsink, Rwire float64

	// Vsupply is the maximum input (word line) voltage in volts.
	Vsupply float64

	// RRAM holds the compact-model fitting parameters.
	RRAM device.RRAMParams

	// SelectorGonFactor sets the access-device low-bias conductance to
	// SelectorGonFactor/Ron; the access device must be much more
	// conductive than the memory cell or it dominates the state, and
	// Validate requires it to exceed 1.
	SelectorGonFactor float64
	// SelectorVsat is the saturation voltage scale of the access
	// device (volts).
	SelectorVsat float64

	// NonLinear selects the device law: true for the full sinh RRAM +
	// tanh selector (HSPICE stand-in), false for linear resistors
	// (the analytical baseline).
	NonLinear bool

	// Start selects how the first rung runs; the zero value
	// (StartSeeded) seeds from and chord-iterates on the
	// per-programming factorization.
	Start SolverStart

	// BatchWorkers bounds how many blocks of a batch solve run at once
	// on the process's fan-out pool (linalg.ParallelEach). Zero (the
	// default) means GOMAXPROCS; 1 solves every block in order on the
	// calling goroutine; n runs at most n blocks at once, and never
	// more than GOMAXPROCS. A nested solve (a funcsim tile task's)
	// recruits only idle workers, so no setting oversubscribes, but
	// blocks shrink to spread a batch over the width (at most
	// GOMAXPROCS): callers that already parallelize at a coarser grain
	// (the functional simulator's tile pipeline) use 1 to keep whole
	// blocks, and benchmarks use it as the serial baseline. Negative
	// values are invalid.
	BatchWorkers int

	// faults carries a test-only fault-injection plan; see WithFaults.
	faults *FaultPlan
}

// DefaultConfig returns the paper's nominal 64×64 design point:
// Ron = 100kΩ, ON/OFF = 6, Rsource = 500Ω, Rsink = 100Ω,
// Rwire = 2.5Ω/cell, Vsupply = 0.25V, non-linear devices enabled.
func DefaultConfig() Config {
	return Config{
		Rows:              64,
		Cols:              64,
		Ron:               100e3,
		OnOffRatio:        6,
		Rsource:           500,
		Rsink:             100,
		Rwire:             2.5,
		Vsupply:           0.25,
		RRAM:              device.DefaultRRAMParams(),
		SelectorGonFactor: 20,
		SelectorVsat:      0.35,
		NonLinear:         true,
	}
}

// Option adjusts a Config under construction by NewConfig.
type Option func(*Config)

// WithRon sets the ON resistance (ohms).
func WithRon(ron float64) Option { return func(c *Config) { c.Ron = ron } }

// WithOnOffRatio sets Roff/Ron.
func WithOnOffRatio(r float64) Option { return func(c *Config) { c.OnOffRatio = r } }

// WithVsupply sets the maximum word-line voltage (volts).
func WithVsupply(v float64) Option { return func(c *Config) { c.Vsupply = v } }

// WithParasitics sets the source, sink and per-cell wire resistances
// (ohms).
func WithParasitics(rsource, rsink, rwire float64) Option {
	return func(c *Config) { c.Rsource, c.Rsink, c.Rwire = rsource, rsink, rwire }
}

// WithLinearDevices replaces the non-linear device laws with linear
// resistors (the analytical-baseline netlist).
func WithLinearDevices() Option { return func(c *Config) { c.NonLinear = false } }

// WithStart sets how the solver's first rung runs (seeded or cold).
func WithStart(s SolverStart) Option { return func(c *Config) { c.Start = s } }

// WithBatchWorkers bounds how many blocks of a batch solve run at once
// (0 = GOMAXPROCS, 1 = serial).
func WithBatchWorkers(n int) Option { return func(c *Config) { c.BatchWorkers = n } }

// NewConfig builds a validated design point: the paper's nominal
// parameters (DefaultConfig) at the given dimensions, adjusted by the
// options, checked once by Validate. Construction sites should prefer
// it over mutating struct literals — nonsensical sizes, negative
// worker counts and zero-value footguns surface here, at the one
// place the configuration is assembled, instead of deep inside a
// solve.
func NewConfig(rows, cols int, opts ...Option) (Config, error) {
	c := DefaultConfig()
	c.Rows, c.Cols = rows, cols
	for _, o := range opts {
		o(&c)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("xbar: dimensions must be positive, got %dx%d", c.Rows, c.Cols)
	// Every test below is written !(x > bound), which NaN fails too.
	case !(c.Ron > 0):
		return fmt.Errorf("xbar: Ron must be positive, got %g", c.Ron)
	case !(c.OnOffRatio > 1):
		return fmt.Errorf("xbar: OnOffRatio must exceed 1, got %g", c.OnOffRatio)
	case !(c.Rsource > 0 && c.Rsink > 0 && c.Rwire > 0):
		return fmt.Errorf("xbar: parasitic resistances must be positive, got Rsource=%g Rsink=%g Rwire=%g",
			c.Rsource, c.Rsink, c.Rwire)
	case !(c.Vsupply > 0):
		return fmt.Errorf("xbar: Vsupply must be positive, got %g", c.Vsupply)
	case !(c.SelectorGonFactor > 1+windowSlack):
		// Program's series calibration needs the access device to
		// conduct more than any in-window cell, Gon·(1+windowSlack).
		return fmt.Errorf("xbar: SelectorGonFactor must exceed 1+%g, got %g", windowSlack, c.SelectorGonFactor)
	case !(c.SelectorVsat > 0):
		return fmt.Errorf("xbar: SelectorVsat must be positive, got %g", c.SelectorVsat)
	case !(c.RRAM.I0 > 0 && c.RRAM.D0 > 0 && c.RRAM.V0 > 0):
		return fmt.Errorf("xbar: RRAM parameters must be positive, got %+v", c.RRAM)
	case c.Start < StartSeeded || c.Start > StartCold:
		return fmt.Errorf("xbar: invalid solver start %d", int(c.Start))
	case c.BatchWorkers < 0:
		return fmt.Errorf("xbar: BatchWorkers must be non-negative, got %d", c.BatchWorkers)
	}
	return nil
}

// Gon returns the ON-state conductance 1/Ron.
func (c Config) Gon() float64 { return 1 / c.Ron }

// Goff returns the OFF-state conductance 1/(Ron·OnOffRatio).
func (c Config) Goff() float64 { return 1 / (c.Ron * c.OnOffRatio) }

// ConductanceFromLevel maps a normalized level in [0, 1] linearly into
// the programmable window [Goff, Gon]. Levels outside the range are
// clamped; this mirrors how a write driver would saturate.
func (c Config) ConductanceFromLevel(level float64) float64 {
	if level < 0 {
		level = 0
	}
	if level > 1 {
		level = 1
	}
	return c.Goff() + level*(c.Gon()-c.Goff())
}

// LevelFromConductance inverts ConductanceFromLevel.
func (c Config) LevelFromConductance(g float64) float64 {
	return (g - c.Goff()) / (c.Gon() - c.Goff())
}

// String gives a compact, human-readable design-point description.
func (c Config) String() string {
	dev := "linear"
	if c.NonLinear {
		dev = "nonlinear"
	}
	return fmt.Sprintf("%dx%d Ron=%.0fkΩ on/off=%g Rs=%gΩ Rk=%gΩ Rw=%gΩ V=%gV %s",
		c.Rows, c.Cols, c.Ron/1e3, c.OnOffRatio, c.Rsource, c.Rsink, c.Rwire, c.Vsupply, dev)
}

// EnvFromConfig projects a crossbar design point onto the environment
// the non-ideality component library perturbs within. Every layer that
// applies nonideal stacks to conductances programmed for this design
// point (funcsim lowering, the fault plan, variation studies) builds
// its Env here so the window and parasitics stay consistent.
func EnvFromConfig(c Config) nonideal.Env {
	return nonideal.Env{
		Rows: c.Rows, Cols: c.Cols,
		Goff: c.Goff(), Gon: c.Gon(),
		Rsource: c.Rsource, Rsink: c.Rsink, Rwire: c.Rwire,
		Vsupply: c.Vsupply,
		RRAM:    c.RRAM,
	}
}
