package experiments

import (
	"fmt"
	"math"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/nonideal"
	"geniex/internal/xbar"
)

// Ablations of the design choices DESIGN.md calls out. These go
// beyond the paper's figures: they quantify why GENIEx is formulated
// the way it is.

func init() {
	register(Experiment{
		ID:    "ab1-ratio",
		Title: "Ablation: predict fR (paper) vs predict currents directly",
		Run:   ab1Ratio,
	})
	register(Experiment{
		ID:    "ab2-sparsity",
		Title: "Ablation: sparsity-stratified training set vs dense-only",
		Run:   ab2Sparsity,
	})
	register(Experiment{
		ID:    "ab3-hidden",
		Title: "Ablation: GENIEx hidden width vs fidelity",
		Run:   ab3Hidden,
	})
	register(Experiment{
		ID:    "ab4-variation",
		Title: "Extension: device variation and stuck-at faults vs NF",
		Run:   ab4Variation,
	})
}

// trainEval trains a fresh ratio-formulation model with the given
// dataset options and returns its held-out NF RMSE.
func (c *Context) trainEval(cfg xbar.Config, hidden int, genOpt core.GenOptions, valOpt core.GenOptions) (float64, error) {
	ds, err := core.Generate(cfg, genOpt)
	if err != nil {
		return 0, err
	}
	m, err := core.NewModel(cfg, hidden, c.Scale.Seed+200)
	if err != nil {
		return 0, err
	}
	if err := m.Train(ds, core.TrainOptions{
		Epochs: c.Scale.GENIExEpochs, BatchSize: 32, LR: 1.5e-3, Seed: c.Scale.Seed + 201,
	}); err != nil {
		return 0, err
	}
	val, err := core.Generate(cfg, valOpt)
	if err != nil {
		return 0, err
	}
	return core.Evaluate(m, val).RMSENF, nil
}

// ab1Ratio compares the paper's fR formulation against direct current
// prediction at a matched parameter/training budget.
func ab1Ratio(c *Context) (*Table, error) {
	cfg := c.BaseXbar()
	cfg.Vsupply = 0.5 // the regime where the formulation matters most
	genOpt := core.GenOptions{Samples: c.Scale.GENIExSamples, Seed: c.Scale.Seed + 210}
	trainOpt := core.TrainOptions{
		Epochs: c.Scale.GENIExEpochs, BatchSize: 32, LR: 1.5e-3, Seed: c.Scale.Seed + 211,
	}
	ds, err := core.Generate(cfg, genOpt)
	if err != nil {
		return nil, err
	}
	train, val := ds.Split(0.25, c.Scale.Seed+212)

	ratio, err := core.NewModel(cfg, c.Scale.GENIExHidden, c.Scale.Seed+213)
	if err != nil {
		return nil, err
	}
	if err := ratio.Train(train, trainOpt); err != nil {
		return nil, err
	}
	direct, err := core.NewDirectModel(cfg, c.Scale.GENIExHidden, c.Scale.Seed+213)
	if err != nil {
		return nil, err
	}
	if err := direct.Train(train, trainOpt); err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Ablation 1 — prediction target (Vsupply = 0.5V)",
		Columns: []string{"formulation", "NF RMSE", "fR RMSE"},
	}
	r := core.Evaluate(ratio, val)
	d := core.Evaluate(direct, val)
	t.AddRow("fR = Iideal/Inon-ideal (paper)", r.RMSENF, r.RMSERatio)
	t.AddRow("direct current", d.RMSENF, d.RMSERatio)
	t.Note("predicting the ratio avoids modelling the multiplicative VxG interaction (Section 4)")
	return t, nil
}

// ab2Sparsity compares training on sparsity-stratified data (the
// paper's choice, motivated by bit-sliced DNN tensors) with training
// on dense-only data, evaluating both on sparse workloads.
func ab2Sparsity(c *Context) (*Table, error) {
	cfg := c.BaseXbar()
	cfg.Vsupply = 0.5
	valOpt := core.GenOptions{
		Samples:    c.Scale.GENIExSamples / 4,
		Sparsities: []float64{0.5, 0.75, 0.9}, // sparse regime, like real workloads
		Seed:       c.Scale.Seed + 220,
	}
	stratified, err := c.trainEval(cfg, c.Scale.GENIExHidden,
		core.GenOptions{Samples: c.Scale.GENIExSamples, Seed: c.Scale.Seed + 221}, valOpt)
	if err != nil {
		return nil, err
	}
	denseOnly, err := c.trainEval(cfg, c.Scale.GENIExHidden,
		core.GenOptions{Samples: c.Scale.GENIExSamples, Sparsities: []float64{0}, Seed: c.Scale.Seed + 221}, valOpt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation 2 — training-set sparsity stratification (sparse validation set)",
		Columns: []string{"training data", "NF RMSE"},
	}
	t.AddRow("stratified sparsity {0..0.9} (paper)", stratified)
	t.AddRow("dense only", denseOnly)
	t.Note("bit-sliced DNN tensors are highly sparse; the training set must cover that regime")
	return t, nil
}

// ab3Hidden sweeps the hidden width P of the surrogate.
func ab3Hidden(c *Context) (*Table, error) {
	cfg := c.BaseXbar()
	cfg.Vsupply = 0.5
	t := &Table{
		Title:   "Ablation 3 — hidden width vs fidelity (Vsupply = 0.5V)",
		Columns: []string{"hidden units", "NF RMSE"},
	}
	widths := []int{8, 32, 128}
	if c.Scale.Name == "full" {
		widths = []int{32, 128, 500}
	}
	for _, p := range widths {
		rmse, err := c.trainEval(cfg, p,
			core.GenOptions{Samples: c.Scale.GENIExSamples, Seed: c.Scale.Seed + 230},
			core.GenOptions{Samples: c.Scale.GENIExSamples / 4, Seed: c.Scale.Seed + 231})
		if err != nil {
			return nil, err
		}
		t.AddRow(p, rmse)
		c.logf("  hidden=%d: rmse=%.4f", p, rmse)
	}
	t.Note("the paper uses P = 500 on 64x64 crossbars")
	return t, nil
}

// ab4Variation measures circuit-level NF degradation under programming
// variation and stuck-at faults — the extension non-idealities a
// data-based model can absorb by training on measured arrays.
func ab4Variation(c *Context) (*Table, error) {
	cfg := c.BaseXbar()
	t := &Table{
		Title:   "Extension — NF under device variation and stuck-at faults",
		Columns: []string{"sigma", "stuck-on %", "stuck-off %", "mean |NF|", "max |NF|"},
	}
	cases := []nonideal.Stack{
		{},
		{&nonideal.D2DVariation{Sigma: 0.1}},
		{&nonideal.D2DVariation{Sigma: 0.3}},
		{&nonideal.StuckAt{POn: 0.01, POff: 0.04}},
		{&nonideal.StuckAt{POn: 0.01, POff: 0.04}, &nonideal.D2DVariation{Sigma: 0.2}},
	}
	for i, stack := range cases {
		meanAbs, maxAbs, err := variationNF(c, cfg, stack, c.Scale.Seed+uint64(300+i))
		if err != nil {
			return nil, err
		}
		var sigma, on, off float64
		for _, comp := range stack {
			switch comp := comp.(type) {
			case *nonideal.StuckAt:
				on, off = comp.POn, comp.POff
			case *nonideal.D2DVariation:
				sigma = comp.Sigma
			}
		}
		t.AddRow(sigma, 100*on, 100*off, meanAbs, maxAbs)
		c.logf("  sigma=%g on=%g off=%g: mean|NF|=%.4f", sigma, on, off, meanAbs)
	}
	t.Note("NF computed against the intended conductances; variation applied at programming time")
	return t, nil
}

// randomConductances draws a uniform conductance matrix inside the
// programming window.
func randomConductances(cfg xbar.Config, rng *linalg.RNG) *linalg.Dense {
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(rng.Float64())
	}
	return g
}

// variationNF programs random arrays perturbed by stack (drawn from
// seed) and measures circuit NF against the intended conductances.
func variationNF(c *Context, cfg xbar.Config, stack nonideal.Stack, seed uint64) (meanAbs, maxAbs float64, err error) {
	rng := linalg.NewRNG(c.Scale.Seed + 400)
	xb, err := xbar.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	var n int
	for s := 0; s < c.Scale.XbarSamples; s++ {
		g := randomConductances(cfg, rng)
		pert := g.Clone()
		if _, err := stack.Apply(pert, xbar.EnvFromConfig(cfg), seed, 0); err != nil {
			return 0, 0, err
		}
		drive := make([]float64, cfg.Rows)
		for i := range drive {
			drive[i] = cfg.Vsupply * rng.Float64()
		}
		if err := xb.Program(pert); err != nil {
			return 0, 0, err
		}
		sol, err := xb.Solve(drive)
		if err != nil {
			return 0, 0, err
		}
		for _, f := range xbar.NF(xbar.IdealCurrents(drive, g), sol.Currents, cfg) {
			a := math.Abs(f)
			sum += a
			if a > maxAbs {
				maxAbs = a
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: no NF samples collected")
	}
	return sum / float64(n), maxAbs, nil
}
