package xbar

import (
	"math"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/nonideal"
)

func midLevels(cfg Config) *linalg.Dense {
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	linalg.Fill(g.Data, cfg.ConductanceFromLevel(0.5))
	return g
}

// applyStack returns what an imperfect programming pass leaves in the
// array: a copy of the intended matrix g perturbed by s at cfg's
// design point. g itself is untouched.
func applyStack(t *testing.T, s nonideal.Stack, g *linalg.Dense, cfg Config, seed uint64) *linalg.Dense {
	t.Helper()
	out := g.Clone()
	if _, err := s.Apply(out, EnvFromConfig(cfg), seed, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

// Neither an empty stack nor zero-rate, zero-sigma components change
// a single cell.
func TestVariationZeroIsIdentity(t *testing.T) {
	cfg := smallConfig()
	g := midLevels(cfg)
	for _, s := range []nonideal.Stack{{}, {&nonideal.StuckAt{}, &nonideal.D2DVariation{}}} {
		out := applyStack(t, s, g, cfg, 1)
		for i := range g.Data {
			if out.Data[i] != g.Data[i] {
				t.Fatalf("zero stack %q changed cell %d", s.Label(), i)
			}
		}
	}
}

func TestVariationStaysInWindow(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(2)
	g := randomLevels(cfg, r)
	s := nonideal.Stack{&nonideal.StuckAt{POn: 0.05, POff: 0.05}, &nonideal.D2DVariation{Sigma: 0.5}}
	out := applyStack(t, s, g, cfg, 3)
	for i, v := range out.Data {
		if v < cfg.Goff() || v > cfg.Gon() {
			t.Fatalf("cell %d conductance %v outside window", i, v)
		}
	}
}

func TestVariationDeterministic(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(4)
	g := randomLevels(cfg, r)
	s := nonideal.Stack{&nonideal.D2DVariation{Sigma: 0.2}}
	a, b := applyStack(t, s, g, cfg, 5), applyStack(t, s, g, cfg, 5)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different perturbations")
		}
	}
}

func TestVariationPerturbs(t *testing.T) {
	cfg := smallConfig()
	g := midLevels(cfg)
	out := applyStack(t, nonideal.Stack{&nonideal.D2DVariation{Sigma: 0.3}}, g, cfg, 7)
	changed := 0
	for i := range g.Data {
		if out.Data[i] != g.Data[i] {
			changed++
		}
	}
	if changed < len(g.Data)/2 {
		t.Errorf("only %d/%d cells perturbed", changed, len(g.Data))
	}
}

func TestStuckAtRates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 64, 64 // enough cells for rate statistics
	g := midLevels(cfg)
	out := applyStack(t, nonideal.Stack{&nonideal.StuckAt{POn: 0.1, POff: 0.2}}, g, cfg, 11)
	var on, off int
	for _, v := range out.Data {
		switch v {
		case cfg.Gon():
			on++
		case cfg.Goff():
			off++
		}
	}
	n := float64(len(out.Data))
	if r := float64(on) / n; math.Abs(r-0.1) > 0.03 {
		t.Errorf("stuck-on rate %.3f, want ~0.10", r)
	}
	// Stuck-off draws happen only on the cells not already stuck on,
	// so the expected rate is 0.2·(1−0.1) = 0.18.
	if r := float64(off) / n; math.Abs(r-0.18) > 0.03 {
		t.Errorf("stuck-off rate %.3f, want ~0.18", r)
	}
}

// Variation must worsen MVM fidelity: NF spread (|NF|) grows with
// sigma because the realized conductances differ from the intent.
func TestVariationIncreasesNFSpread(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(13)
	g := randomLevels(cfg, r)
	v := make([]float64, cfg.Rows)
	linalg.Fill(v, cfg.Vsupply)

	spread := func(sigma float64) float64 {
		pert := applyStack(t, nonideal.Stack{&nonideal.D2DVariation{Sigma: sigma}}, g, cfg, 17)
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(pert); err != nil {
			t.Fatal(err)
		}
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		// NF against the intended matrix.
		nf := NF(IdealCurrents(v, g), sol.Currents, cfg)
		var sum float64
		for _, f := range nf {
			sum += math.Abs(f)
		}
		return sum / float64(len(nf))
	}
	clean := spread(0)
	noisy := spread(0.4)
	if noisy <= clean {
		t.Errorf("variation did not increase NF spread: %v vs %v", noisy, clean)
	}
}
