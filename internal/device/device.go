// Package device implements the non-linear element models that populate
// the crossbar netlist: the filamentary RRAM compact model from the
// paper (I(d,V) = I0·exp(−d/d0)·sinh(V/V0), Guan et al. [21]) and a
// two-terminal access-device (selector) model standing in for the TSMC
// 65nm access transistor used in the paper's HSPICE decks.
//
// Both models expose current and small-signal conductance as functions
// of the branch voltage, which is all the modified-nodal-analysis
// solver in package xbar needs. Keeping every element two-terminal
// keeps the Jacobian symmetric positive definite, so the solver can
// factor it directly (LDLᵀ and Cholesky) at every iterate.
package device

import (
	"fmt"
	"math"
)

// Element is a two-terminal non-linear circuit element characterised
// by its branch current I(V) and differential conductance dI/dV.
// Implementations must be odd symmetric (I(-V) = -I(V)) and strictly
// monotonic so the assembled network has a unique solution.
type Element interface {
	// Eval returns the branch current i and the differential
	// conductance g = dI/dV at branch voltage v, from one evaluation of
	// the device law: the solver needs both at every device on every
	// iterate. g is positive wherever the law has not saturated to
	// floating-point precision.
	Eval(v float64) (i, g float64)
}

// RRAMParams are the fitting parameters of the filamentary RRAM
// compact model. The paper's experimental methodology (Section 6)
// lists d0 = 0.25nm, V0 = 0.25V, I0 = 0.1mA.
type RRAMParams struct {
	I0 float64 // current prefactor, amperes
	D0 float64 // gap decay length, metres
	V0 float64 // voltage scale of the sinh non-linearity, volts
}

// DefaultRRAMParams returns the repository's calibrated device
// parameters. I0 and d0 follow the paper; V0 is calibrated to 0.4V
// instead of the paper's 0.25V: with this repository's two-terminal
// selector substitution (which drops far less voltage than the
// paper's 65nm access transistor), V0 = 0.25V makes the sinh boost
// dominate IR drop at the nominal 0.25V supply for arrays up to
// 32×32, flipping the sign of the NF distributions — whereas the
// paper's Fig. 2 shows positive-NF dominance at the nominal design
// point, with NF < 0 only in its very sparse Fig. 9 corner. V0 = 0.4V
// restores the paper's boost/IR-drop balance while keeping the strong
// data-dependent non-linearity at 0.5V that motivates GENIEx. See
// DESIGN.md for the full substitution note.
func DefaultRRAMParams() RRAMParams {
	return RRAMParams{I0: 1e-4, D0: 0.25e-9, V0: 0.4}
}

// GapForConductance inverts the low-bias conductance relation of the
// compact model: given g = I0·exp(−d/d0)/V0, it returns the filament
// gap d in metres. It is the bridge the non-ideality library uses to
// express conductance aging as physical gap growth. g must be
// strictly positive.
func (p RRAMParams) GapForConductance(g float64) float64 {
	return -p.D0 * math.Log(g*p.V0/p.I0)
}

// ConductanceForGap is the forward relation: the low-bias conductance
// of a cell with filament gap d (metres).
func (p RRAMParams) ConductanceForGap(d float64) float64 {
	return p.I0 * math.Exp(-d/p.D0) / p.V0
}

// RRAM is a filamentary RRAM cell in a fixed resistance state. The
// state is captured by the filament gap d; the constructor maps a
// target low-bias conductance to the equivalent gap, so callers think
// in terms of conductance while the I-V retains the sinh shape.
//
//	I(V)     = I0 · exp(−d/d0) · sinh(V/V0)
//	G(V→0)   = I0 · exp(−d/d0) / V0
type RRAM struct {
	params RRAMParams
	gap    float64 // filament gap, metres
	scale  float64 // I0·exp(−d/d0), precomputed
}

// NewRRAM creates an RRAM device whose low-bias conductance equals g
// (siemens). It panics if g is not strictly positive: a programmed
// cell always conducts at least Goff.
func NewRRAM(g float64, p RRAMParams) *RRAM {
	if g <= 0 {
		panic(fmt.Sprintf("device: RRAM conductance must be positive, got %g", g))
	}
	// g = I0·exp(−d/d0)/V0  ⇒  d = −d0·ln(g·V0/I0).
	gap := p.GapForConductance(g)
	return &RRAM{params: p, gap: gap, scale: g * p.V0}
}

// Gap returns the filament gap in metres implied by the programmed
// conductance. Larger gaps mean lower conductance.
func (d *RRAM) Gap() float64 { return d.gap }

// LowBiasConductance returns the conductance at V → 0.
func (d *RRAM) LowBiasConductance() float64 { return d.scale / d.params.V0 }

// Eval implements Element: sinh and cosh of v/V0 from one exponential
// of |v|/V0, so the current is exactly odd in v.
func (d *RRAM) Eval(v float64) (i, g float64) {
	e := math.Exp(math.Abs(v) / d.params.V0)
	inv := 1 / e
	i = d.scale * 0.5 * (e - inv)
	if v < 0 {
		i = -i
	}
	return i, d.scale / d.params.V0 * 0.5 * (e + inv)
}

// Selector is the two-terminal access-device model: a saturating
// resistor I(V) = Gon·Vsat·tanh(V/Vsat). At low bias it behaves as the
// on-resistance of the fully driven access transistor; at higher bias
// the current compresses, reproducing the triode→saturation transition
// that makes the crossbar transfer characteristic data dependent.
type Selector struct {
	gon  float64 // low-bias conductance, siemens
	vsat float64 // saturation voltage scale, volts
}

// NewSelector creates a selector with low-bias conductance gon and
// saturation scale vsat. It panics on non-positive parameters.
func NewSelector(gon, vsat float64) *Selector {
	if gon <= 0 || vsat <= 0 {
		panic(fmt.Sprintf("device: selector parameters must be positive, got gon=%g vsat=%g", gon, vsat))
	}
	return &Selector{gon: gon, vsat: vsat}
}

// Eval implements Element: dI/dV = Gon·(1 − tanh²) from the one tanh
// the current needs.
func (s *Selector) Eval(v float64) (i, g float64) {
	t := math.Tanh(v / s.vsat)
	return s.gon * s.vsat * t, s.gon * (1 - t) * (1 + t)
}

// Linear is an ideal resistor with fixed conductance. It is the device
// law used by the paper's baseline "analytical" model, which captures
// only the linear (parasitic resistance) non-idealities.
type Linear struct {
	G float64 // conductance, siemens
}

// NewLinear creates a linear resistor with conductance g. It panics if
// g is not strictly positive.
func NewLinear(g float64) Linear {
	if g <= 0 {
		panic(fmt.Sprintf("device: linear conductance must be positive, got %g", g))
	}
	return Linear{G: g}
}

// Eval implements Element.
func (l Linear) Eval(v float64) (i, g float64) { return l.G * v, l.G }
