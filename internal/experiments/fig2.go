package experiments

import (
	"fmt"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// solverHealth aggregates per-solve diagnostics across a sweep so the
// tables can report how hard the circuit solver had to work — and
// whether any point needed the recovery ladder.
type solverHealth struct {
	solves, recovered, newtonIters int
	worstResid                     float64
}

func (h *solverHealth) record(sol *xbar.Solution) {
	h.solves++
	h.newtonIters += sol.NewtonIters
	if sol.Recovery != "" {
		h.recovered++
	}
	h.worstResid = max(h.worstResid, sol.Residual)
}

func (h *solverHealth) add(other solverHealth) {
	h.solves += other.solves
	h.recovered += other.recovered
	h.newtonIters += other.newtonIters
	h.worstResid = max(h.worstResid, other.worstResid)
}

// note prints the line cmd/xbar-sim prints for its solves.
func (h *solverHealth) note(t *Table) {
	if h.solves == 0 {
		return
	}
	t.Note("solver health: %d solves, %d recovered, %.1f solver updates/solve, worst KCL residual %.2g",
		h.solves, h.recovered, float64(h.newtonIters)/float64(h.solves), h.worstResid)
}

// sampleNF draws random sparse (V, G) workloads for a design point,
// solves the full non-linear circuit, and returns the pooled
// per-column NF values together with paired (ideal, non-ideal)
// currents and aggregate solver-health counters.
func sampleNF(cfg xbar.Config, samples int, seed uint64) (nf, ideal, nonideal []float64, health solverHealth, err error) {
	rng := linalg.NewRNG(seed)
	vs := linalg.NewDense(samples, cfg.Rows)
	gs := make([]*linalg.Dense, samples)
	sparsities := []float64{0, 0.25, 0.5, 0.75}
	for s := 0; s < samples; s++ {
		sv := sparsities[rng.Intn(len(sparsities))]
		sg := sparsities[rng.Intn(len(sparsities))]
		for i := 0; i < cfg.Rows; i++ {
			if rng.Float64() >= sv {
				vs.Set(s, i, cfg.Vsupply*rng.Float64())
			}
		}
		g := linalg.NewDense(cfg.Rows, cfg.Cols)
		for i := range g.Data {
			level := 0.0
			if rng.Float64() >= sg {
				level = rng.Float64()
			}
			g.Data[i] = cfg.ConductanceFromLevel(level)
		}
		gs[s] = g
	}

	errs := make([]error, samples)
	nfAll := make([][]float64, samples)
	idealAll := make([][]float64, samples)
	nonAll := make([][]float64, samples)
	sols := make([]*xbar.Solution, samples)
	linalg.ParallelFor(samples, func(lo, hi int) {
		xb, err := xbar.New(cfg)
		if err != nil {
			for s := lo; s < hi; s++ {
				errs[s] = err
			}
			return
		}
		for s := lo; s < hi; s++ {
			if err := xb.Program(gs[s]); err != nil {
				errs[s] = err
				return
			}
			sol, err := xb.Solve(vs.Row(s))
			if err != nil {
				errs[s] = err
				return
			}
			sols[s] = sol
			id := xbar.IdealCurrents(vs.Row(s), gs[s])
			nfAll[s] = xbar.NF(id, sol.Currents, cfg)
			idealAll[s] = id
			nonAll[s] = sol.Currents
		}
	})
	for _, e := range errs {
		if e != nil {
			return nil, nil, nil, health, e
		}
	}
	for s := 0; s < samples; s++ {
		nf = append(nf, nfAll[s]...)
		ideal = append(ideal, idealAll[s]...)
		nonideal = append(nonideal, nonAll[s]...)
		health.record(sols[s])
	}
	return nf, ideal, nonideal, health, nil
}

func summaryRow(t *Table, label string, values []float64) {
	s := linalg.Summarize(values)
	t.AddRow(label, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

func init() {
	register(Experiment{
		ID:    "2a",
		Title: "Fig 2(a): ideal vs non-ideal output currents",
		Run:   fig2a,
	})
	register(Experiment{
		ID:    "2b",
		Title: "Fig 2(b): NF vs crossbar size",
		Run: func(c *Context) (*Table, error) {
			return fig2Sweep(c, "crossbar size", []float64{16, 32, 64}, func(cfg *xbar.Config, v float64) {
				cfg.Rows, cfg.Cols = int(v), int(v)
			})
		},
	})
	register(Experiment{
		ID:    "2c",
		Title: "Fig 2(c): NF vs ON resistance",
		Run: func(c *Context) (*Table, error) {
			return fig2Sweep(c, "Ron (kΩ)", []float64{50, 100, 300}, func(cfg *xbar.Config, v float64) {
				cfg.Ron = v * 1e3
			})
		},
	})
	register(Experiment{
		ID:    "2d",
		Title: "Fig 2(d): NF vs conductance ON/OFF ratio",
		Run: func(c *Context) (*Table, error) {
			return fig2Sweep(c, "ON/OFF ratio", []float64{2, 6, 10}, func(cfg *xbar.Config, v float64) {
				cfg.OnOffRatio = v
			})
		},
	})
}

// fig2a reproduces the scatter of Fig. 2(a) as a binned table: for
// bands of ideal current, the spread of the non-ideal current.
func fig2a(c *Context) (*Table, error) {
	cfg := c.BaseXbar()
	_, ideal, nonideal, health, err := sampleNF(cfg, c.Scale.XbarSamples, c.Scale.Seed)
	if err != nil {
		return nil, err
	}
	full := float64(cfg.Rows) * cfg.Vsupply * cfg.Gon()
	t := &Table{
		Title:   fmt.Sprintf("Fig 2(a) — %s", cfg),
		Columns: []string{"ideal current band (µA)", "n", "non-ideal min (µA)", "median", "max", "median deviation %"},
	}
	const nbins = 6
	for b := 0; b < nbins; b++ {
		lo, hi := full*float64(b)/nbins, full*float64(b+1)/nbins
		var non []float64
		var devs []float64
		for i, id := range ideal {
			if id < lo || id >= hi || id <= 0 {
				continue
			}
			non = append(non, nonideal[i])
			devs = append(devs, 100*(id-nonideal[i])/id)
		}
		if len(non) == 0 {
			continue
		}
		s := linalg.Summarize(non)
		d := linalg.Summarize(devs)
		t.AddRow(fmt.Sprintf("%.2f–%.2f", lo*1e6, hi*1e6), len(non),
			s.Min*1e6, s.Median*1e6, s.Max*1e6, d.Median)
	}
	t.Note("similar ideal currents map to a spread of non-ideal currents (data dependence)")
	health.note(t)
	return t, nil
}

// fig2Sweep runs the NF box-plot sweep common to Figs. 2(b,c,d).
func fig2Sweep(c *Context, param string, values []float64, apply func(*xbar.Config, float64)) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Fig 2 sweep — NF distribution vs %s", param),
		Columns: []string{param, "min", "q1", "median", "q3", "max", "mean"},
	}
	var total solverHealth
	for _, v := range values {
		cfg := c.BaseXbar()
		apply(&cfg, v)
		if cfg.Rows > 32 && c.Scale.Name == "tiny" {
			// Keep tiny-scale runs fast; the trend is visible at ≤32.
			continue
		}
		nf, _, _, health, err := sampleNF(cfg, c.Scale.XbarSamples, c.Scale.Seed)
		if err != nil {
			return nil, err
		}
		total.add(health)
		summaryRow(t, fmt.Sprintf("%g", v), nf)
		c.logf("  %s=%g done", param, v)
	}
	total.note(t)
	return t, nil
}
