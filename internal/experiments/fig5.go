package experiments

import (
	"fmt"

	"geniex/internal/core"
)

func init() {
	register(Experiment{
		ID:    "5",
		Title: "Fig 5: NF RMSE of GENIEx and the analytical model vs the circuit solver",
		Run:   fig5,
	})
}

// fig5 reproduces the paper's headline fidelity comparison: the RMSE
// of the non-ideality factor with respect to "SPICE" (here the circuit
// solver) for the linear analytical model and for GENIEx, at low
// (0.25V) and high (0.5V) supply. The paper reports 1.73/8.99
// (analytical) vs 0.25/0.7 (GENIEx), i.e. 7× and 12.8× improvements.
func fig5(c *Context) (*Table, error) {
	t := &Table{
		Title:   "Fig 5 — NF RMSE wrt circuit solver",
		Columns: []string{"Vsupply (V)", "analytical RMSE", "GENIEx RMSE", "improvement"},
	}
	for _, vs := range []float64{0.25, 0.5} {
		ana, gx, err := Fig5Point(c, vs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", vs), ana, gx, fmt.Sprintf("%.1fx", ana/gx))
		c.logf("  Vsupply=%.2f: analytical=%.4f geniex=%.4f", vs, ana, gx)
	}
	t.Note("paper: analytical 1.73/8.99, GENIEx 0.25/0.7 (7x and 12.8x) on a 64x64 crossbar")
	return t, nil
}

// Fig5Point computes one (analytical RMSE, GENIEx RMSE) pair at the
// given supply voltage on a held-out validation set; exported for
// tests and benchmarks.
func Fig5Point(c *Context, vsupply float64) (analytical, geniex float64, err error) {
	cfg := c.BaseXbar()
	cfg.Vsupply = vsupply
	model, err := c.GENIEx(cfg)
	if err != nil {
		return 0, 0, err
	}
	val, err := core.Generate(cfg, core.GenOptions{
		Samples: c.Scale.GENIExSamples/4 + 20,
		Seed:    c.Scale.Seed + 9999, // disjoint from the training seed
	})
	if err != nil {
		return 0, 0, err
	}
	gx := core.Evaluate(model, val)
	ana := core.Evaluate(core.AnalyticalAdapter{Cfg: cfg}, val)
	return ana.RMSENF, gx.RMSENF, nil
}
