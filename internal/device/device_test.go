package device

import (
	"math"
	"testing"
	"testing/quick"
)

// current is the branch-current half of Element.Eval.
func current(e Element, v float64) float64 {
	i, _ := e.Eval(v)
	return i
}

func TestRRAMLowBiasConductance(t *testing.T) {
	p := DefaultRRAMParams()
	for _, g := range []float64{1e-6, 1e-5, 2e-5, 1e-4} {
		d := NewRRAM(g, p)
		if got := d.LowBiasConductance(); math.Abs(got-g)/g > 1e-12 {
			t.Errorf("low-bias conductance = %v, want %v", got, g)
		}
		// Numerical small-signal conductance must match too.
		const h = 1e-7
		num := (current(d, h) - current(d, -h)) / (2 * h)
		if math.Abs(num-g)/g > 1e-6 {
			t.Errorf("numerical G(0) = %v, want %v", num, g)
		}
	}
}

func TestRRAMGapMonotone(t *testing.T) {
	p := DefaultRRAMParams()
	lo := NewRRAM(1e-6, p)
	hi := NewRRAM(1e-4, p)
	if lo.Gap() <= hi.Gap() {
		t.Errorf("lower conductance should mean larger gap: %v vs %v", lo.Gap(), hi.Gap())
	}
}

func TestRRAMSuperLinear(t *testing.T) {
	d := NewRRAM(1e-5, DefaultRRAMParams())
	// sinh non-linearity: current at 2V' must exceed twice the current
	// at V' for V' comparable to V0.
	v := 0.25
	if current(d, 2*v) <= 2*current(d, v) {
		t.Errorf("RRAM should be super-linear: I(2v)=%v vs 2I(v)=%v", current(d, 2*v), 2*current(d, v))
	}
}

func TestSelectorSubLinear(t *testing.T) {
	s := NewSelector(1e-4, 0.3)
	v := 0.3
	if current(s, 2*v) >= 2*current(s, v) {
		t.Errorf("selector should be sub-linear: I(2v)=%v vs 2I(v)=%v", current(s, 2*v), 2*current(s, v))
	}
}

// Property: all element models are odd symmetric and their analytic
// conductance matches a centered difference of the current.
func TestElementConsistency(t *testing.T) {
	elems := []Element{
		NewRRAM(1e-5, DefaultRRAMParams()),
		NewSelector(2e-5, 0.3),
		NewLinear(1e-5),
	}
	f := func(raw float64) bool {
		v := math.Mod(raw, 0.6) // keep within a realistic operating range
		if math.IsNaN(v) {
			return true
		}
		for _, e := range elems {
			if math.Abs(current(e, v)+current(e, -v)) > 1e-18 {
				return false
			}
			const h = 1e-6
			num := (current(e, v+h) - current(e, v-h)) / (2 * h)
			_, ana := e.Eval(v)
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
	elems := []Element{
		NewRRAM(1e-5, DefaultRRAMParams()),
		NewSelector(2e-5, 0.3),
		NewLinear(1e-5),
	}
	for _, e := range elems {
		prev := current(e, -0.5)
		for v := -0.49; v <= 0.5; v += 0.01 {
			cur := current(e, v)
			if cur <= prev {
				t.Fatalf("%T not strictly increasing at v=%v", e, v)
			}
			prev = cur
		}
	}
}

func TestConstructorsPanicOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewRRAM(0, DefaultRRAMParams()) },
		func() { NewRRAM(-1, DefaultRRAMParams()) },
		func() { NewSelector(0, 1) },
		func() { NewSelector(1, 0) },
		func() { NewLinear(0) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			c()
		}()
	}
}

func TestLinearIsExactlyLinear(t *testing.T) {
	l := NewLinear(3e-5)
	for _, v := range []float64{-0.5, -0.1, 0, 0.2, 0.5} {
		if got := current(l, v); got != 3e-5*v {
			t.Errorf("current at %v = %v", v, got)
		}
		if _, got := l.Eval(v); got != 3e-5 {
			t.Errorf("conductance at %v = %v", v, got)
		}
	}
}

// Eval's one-transcendental forms must agree with the textbook laws:
// I = I0·e^(−d/d0)·sinh(V/V0), G = I0·e^(−d/d0)·cosh(V/V0)/V0 for the
// RRAM, and I = Gon·Vsat·tanh(V/Vsat), G = Gon/cosh²(V/Vsat) for the
// selector.
func TestEvalMatchesReferenceLaws(t *testing.T) {
	p := DefaultRRAMParams()
	const g0, gon, vsat = 2e-5, 2e-4, 0.35
	d := NewRRAM(g0, p)
	s := NewSelector(gon, vsat)
	// RRAM currents near V = 0 carry the cancellation of e − 1/e: an
	// absolute error of a few ulps of the low-bias current scale.
	abs := 4e-16 * g0 * p.V0
	for _, v := range []float64{-0.6, -0.25, -1e-3, 0, 1e-9, 1e-3, 0.1, 0.3, 0.6} {
		i, g := d.Eval(v)
		if want := g0 * p.V0 * math.Sinh(v/p.V0); math.Abs(i-want) > abs+1e-14*math.Abs(want) {
			t.Errorf("RRAM I(%v) = %v, want %v", v, i, want)
		}
		if want := g0 * math.Cosh(v/p.V0); math.Abs(g-want) > 1e-14*want {
			t.Errorf("RRAM G(%v) = %v, want %v", v, g, want)
		}
		i, g = s.Eval(v)
		if want := gon * vsat * math.Tanh(v/vsat); i != want {
			t.Errorf("selector I(%v) = %v, want %v", v, i, want)
		}
		c := math.Cosh(v / vsat)
		if want := gon / (c * c); math.Abs(g-want) > 1e-14*want {
			t.Errorf("selector G(%v) = %v, want %v", v, g, want)
		}
	}
}
