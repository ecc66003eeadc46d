package device

import (
	"math"
	"testing"
	"testing/quick"
)

// law is one device law with its parameters bound: current and
// differential conductance at branch voltage v.
type law struct {
	name string
	eval func(v float64) (i, g float64)
}

// current is the branch-current half of a law.
func (l law) current(v float64) float64 {
	i, _ := l.eval(v)
	return i
}

// rram binds RRAMLaw to a cell of low-bias conductance g.
func rram(g float64, p RRAMParams) law {
	return law{"rram", func(v float64) (float64, float64) { return RRAMLaw(g*p.V0, p.V0, v) }}
}

// selector binds SelectorLaw to its parameters.
func selector(gon, vsat float64) law {
	return law{"selector", func(v float64) (float64, float64) { return SelectorLaw(gon, vsat, v) }}
}

func TestRRAMLowBiasConductance(t *testing.T) {
	p := DefaultRRAMParams()
	for _, g := range []float64{1e-6, 1e-5, 2e-5, 1e-4} {
		d := rram(g, p)
		if _, got := d.eval(0); math.Abs(got-g)/g > 1e-12 {
			t.Errorf("low-bias conductance = %v, want %v", got, g)
		}
		// Numerical small-signal conductance must match too.
		const h = 1e-7
		num := (d.current(h) - d.current(-h)) / (2 * h)
		if math.Abs(num-g)/g > 1e-6 {
			t.Errorf("numerical G(0) = %v, want %v", num, g)
		}
	}
}

func TestRRAMGapMonotone(t *testing.T) {
	p := DefaultRRAMParams()
	lo, hi := p.GapForConductance(1e-6), p.GapForConductance(1e-4)
	if lo <= hi {
		t.Errorf("lower conductance should mean larger gap: %v vs %v", lo, hi)
	}
	for _, g := range []float64{1e-6, 1e-4} {
		if back := p.ConductanceForGap(p.GapForConductance(g)); math.Abs(back-g)/g > 1e-12 {
			t.Errorf("gap round trip of %v gives %v", g, back)
		}
	}
}

func TestRRAMSuperLinear(t *testing.T) {
	d := rram(1e-5, DefaultRRAMParams())
	// sinh non-linearity: current at 2V' must exceed twice the current
	// at V' for V' comparable to V0.
	v := 0.25
	if d.current(2*v) <= 2*d.current(v) {
		t.Errorf("RRAM should be super-linear: I(2v)=%v vs 2I(v)=%v", d.current(2*v), 2*d.current(v))
	}
}

func TestSelectorSubLinear(t *testing.T) {
	s := selector(1e-4, 0.3)
	v := 0.3
	if s.current(2*v) >= 2*s.current(v) {
		t.Errorf("selector should be sub-linear: I(2v)=%v vs 2I(v)=%v", s.current(2*v), 2*s.current(v))
	}
}

// Property: both laws are odd symmetric and their analytic
// conductance matches a centered difference of the current.
func TestElementConsistency(t *testing.T) {
	laws := []law{rram(1e-5, DefaultRRAMParams()), selector(2e-5, 0.3)}
	f := func(raw float64) bool {
		v := math.Mod(raw, 0.6) // keep within a realistic operating range
		if math.IsNaN(v) {
			return true
		}
		for _, l := range laws {
			if math.Abs(l.current(v)+l.current(-v)) > 1e-18 {
				return false
			}
			const h = 1e-6
			num := (l.current(v+h) - l.current(v-h)) / (2 * h)
			_, ana := l.eval(v)
			if math.Abs(num-ana) > 1e-6*(1+math.Abs(ana)) {
				return false
			}
			if ana <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestElementMonotonic(t *testing.T) {
	for _, l := range []law{rram(1e-5, DefaultRRAMParams()), selector(2e-5, 0.3)} {
		prev := l.current(-0.5)
		for v := -0.49; v <= 0.5; v += 0.01 {
			cur := l.current(v)
			if cur <= prev {
				t.Fatalf("%s law not strictly increasing at v=%v", l.name, v)
			}
			prev = cur
		}
	}
}

// The one-transcendental forms must agree with the textbook laws:
// I = I0·e^(−d/d0)·sinh(V/V0), G = I0·e^(−d/d0)·cosh(V/V0)/V0 for the
// RRAM, and I = Gon·Vsat·tanh(V/Vsat), G = Gon/cosh²(V/Vsat) for the
// selector.
func TestEvalMatchesReferenceLaws(t *testing.T) {
	p := DefaultRRAMParams()
	const g0, gon, vsat = 2e-5, 2e-4, 0.35
	// RRAM currents near V = 0 carry the cancellation of e − 1/e: an
	// absolute error of a few ulps of the low-bias current scale.
	abs := 4e-16 * g0 * p.V0
	for _, v := range []float64{-0.6, -0.25, -1e-3, 0, 1e-9, 1e-3, 0.1, 0.3, 0.6} {
		i, g := RRAMLaw(g0*p.V0, p.V0, v)
		if want := g0 * p.V0 * math.Sinh(v/p.V0); math.Abs(i-want) > abs+1e-14*math.Abs(want) {
			t.Errorf("RRAM I(%v) = %v, want %v", v, i, want)
		}
		if want := g0 * math.Cosh(v/p.V0); math.Abs(g-want) > 1e-14*want {
			t.Errorf("RRAM G(%v) = %v, want %v", v, g, want)
		}
		i, g = SelectorLaw(gon, vsat, v)
		if want := gon * vsat * math.Tanh(v/vsat); i != want {
			t.Errorf("selector I(%v) = %v, want %v", v, i, want)
		}
		c := math.Cosh(v / vsat)
		if want := gon / (c * c); math.Abs(g-want) > 1e-14*want {
			t.Errorf("selector G(%v) = %v, want %v", v, g, want)
		}
	}
}
