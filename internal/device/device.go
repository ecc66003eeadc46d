// Package device holds the device laws of the crossbar netlist: the
// filamentary RRAM compact model from the paper (I(d,V) =
// I0·exp(−d/d0)·sinh(V/V0), Guan et al. [21]) and a two-terminal
// access-device (selector) model standing in for the TSMC 65nm access
// transistor used in the paper's HSPICE decks.
//
// Every cell obeys the same law, so a programmed array is only per-cell
// parameters: package xbar stores each cell's sinh prefactor in a slice
// and calls the law functions here on it. Each returns the branch
// current and the small-signal conductance at the branch voltage,
// which is all the modified-nodal-analysis solver needs. Keeping every
// element two-terminal keeps the Jacobian symmetric positive definite,
// so the solver can factor it directly (LDLᵀ and Cholesky) at every
// iterate.
package device

import "math"

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
// gap d in metres. Larger gaps mean lower conductance. It is the
// bridge the non-ideality library uses to express conductance aging
// as physical gap growth. g must be strictly positive.
func (p RRAMParams) GapForConductance(g float64) float64 {
	return -p.D0 * math.Log(g*p.V0/p.I0)
}

// ConductanceForGap is the forward relation: the low-bias conductance
// of a cell with filament gap d (metres).
func (p RRAMParams) ConductanceForGap(d float64) float64 {
	return p.I0 * math.Exp(-d/p.D0) / p.V0
}

// RRAMLaw evaluates a filamentary RRAM cell at branch voltage v. The
// cell's state is its sinh prefactor scale = I0·exp(−d/d0), which is
// g·v0 for a cell of low-bias conductance g:
//
//	I(v) = scale · sinh(v/v0)
//	G(v) = scale · cosh(v/v0) / v0
//
// sinh and cosh come from one exponential of |v|/v0, so the current
// is exactly odd in v.
func RRAMLaw(scale, v0, v float64) (i, g float64) {
	e := math.Exp(math.Abs(v) / v0)
	inv := 1 / e
	i = scale * 0.5 * (e - inv)
	if v < 0 {
		i = -i
	}
	return i, scale / v0 * 0.5 * (e + inv)
}

// SelectorLaw evaluates the access device at branch voltage v: a
// saturating resistor I(v) = gon·vsat·tanh(v/vsat) with differential
// conductance gon·(1 − tanh²) from the one tanh the current needs. At
// low bias it behaves as the on-resistance 1/gon of the fully driven
// access transistor; at higher bias the current compresses,
// reproducing the triode→saturation transition that makes the
// crossbar transfer characteristic data dependent.
func SelectorLaw(gon, vsat, v float64) (i, g float64) {
	t := math.Tanh(v / vsat)
	return gon * vsat * t, gon * (1 - t) * (1 + t)
}
