package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/models"
	"geniex/internal/nn"
	"geniex/internal/xbar"
)

// The CNN every tier lowers: MiniConvNet, 4 channels, on SynthCIFAR.
// Its seeds are fixed, so every workload seed simulates the same
// network and only the images change. The training budget is kept to
// about a second so three set-ups fit in a run.
const (
	cnnTrain    = 512
	cnnEpochs   = 4
	cnnChannels = 4
	// opTolerance is the rRMSE within which an op's output must match
	// its reference, as BenchmarkMVMCircuit gates seeded against cold.
	opTolerance = 1e-6
)

func trainCNN() (*dataset.Set, *nn.Sequential, error) {
	set := dataset.SynthCIFAR(cnnTrain, 1, 11)
	net := models.MiniConvNet(set, cnnChannels, 31)
	err := models.Train(net, set, models.TrainConfig{Epochs: cnnEpochs, BatchSize: 32, LR: 0.05, Seed: 41})
	return set, net, err
}

// simConfig is the common design point: funcsim.DefaultConfig's
// operands (paper Table 3) on size×size crossbars with xbar.NewConfig
// defaults. Tile tasks fan out over all cores, so batch solves stay
// serial (BatchWorkers 1), as funcsim-run and geniex-serve set it.
func simConfig(size int, opts ...xbar.Option) (funcsim.Config, error) {
	x, err := xbar.NewConfig(size, size, append([]xbar.Option{xbar.WithBatchWorkers(1)}, opts...)...)
	if err != nil {
		return funcsim.Config{}, err
	}
	return funcsim.NewConfig(x)
}

func lower(net *nn.Sequential, cfg funcsim.Config, model funcsim.Model) (*funcsim.Sim, error) {
	eng, err := funcsim.NewEngine(cfg, model)
	if err != nil {
		return nil, err
	}
	return funcsim.Lower(net, eng)
}

// images returns n SynthCIFAR images, one per 1-row matrix.
func images(n int, seed uint64) []*linalg.Dense {
	set := dataset.SynthCIFAR(1, n, seed)
	out := make([]*linalg.Dense, n)
	for i := range out {
		out[i] = linalg.NewDense(1, set.Features())
		copy(out[i].Data, set.TestX.Row(i))
	}
	return out
}

// solverGate is the seeded-vs-cold gate of BenchmarkMVMCircuit: a
// random 16×16 matrix lowered on 8×8 circuit tiles, run once with the
// default seeded Newton start and once cold. It returns their rRMSE.
func solverGate() (float64, error) {
	rng := linalg.NewRNG(3)
	w := linalg.NewDense(16, 16)
	for i := range w.Data {
		w.Data[i] = 2*rng.Float64() - 1
	}
	x := linalg.NewDense(4, 16)
	for i := range x.Data {
		x.Data[i] = 2*rng.Float64() - 1
	}
	var ys [2]*linalg.Dense
	for i, start := range []xbar.SolverStart{xbar.StartSeeded, xbar.StartCold} {
		cfg, err := simConfig(8, xbar.WithStart(start))
		if err != nil {
			return 0, err
		}
		cfg.Workers = 1
		eng, err := funcsim.NewEngine(cfg, funcsim.Circuit{Cfg: cfg.Xbar})
		if err != nil {
			return 0, err
		}
		m, err := eng.Lower(w)
		if err != nil {
			return 0, err
		}
		if ys[i], err = m.MVM(x); err != nil {
			return 0, err
		}
	}
	return rrmse(ys[0].Data, ys[1].Data), nil
}

// gate runs solverGate as a check and returns its rRMSE.
func (b *bench) gate() (float64, error) {
	r, err := solverGate()
	if err != nil {
		return 0, fmt.Errorf("solver gate: %w", err)
	}
	b.check("seeded-vs-cold-solver", r <= opTolerance, fmt.Sprintf("rRMSE %.3g ≤ %g", r, opTolerance))
	return r, nil
}

// fidelity measures a current model against circuit-labelled samples:
// Fig. 5's NF RMSE (core.Evaluate) and the rRMSE of its currents
// against the solver's over all samples.
func fidelity(m core.CurrentModel, ds *core.Dataset) (nfRMSE, currRRMSE float64) {
	g := linalg.NewDense(ds.Cfg.Rows, ds.Cfg.Cols)
	var got, want []float64
	for s := 0; s < ds.Len(); s++ {
		copy(g.Data, ds.G.Row(s))
		v := ds.V.Row(s)
		want = append(want, xbar.ApplyRatio(xbar.IdealCurrents(v, g), ds.FR.Row(s))...)
		got = append(got, m.NonIdealCurrents(v, g)...)
	}
	return core.Evaluate(m, ds).RMSENF, rrmse(got, want)
}

// seededSolver is a core.CurrentModel backed by the circuit solver's
// default seeded start, for comparing it with cold-labelled samples.
type seededSolver struct{ xb *xbar.Crossbar }

func (s seededSolver) NonIdealCurrents(v []float64, g *linalg.Dense) []float64 {
	nan := func() []float64 {
		out := make([]float64, g.Cols)
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	if err := s.xb.Program(g); err != nil {
		return nan()
	}
	sol, err := s.xb.Solve(v)
	if err != nil {
		return nan()
	}
	return sol.Currents
}

// timedModel wraps an analog model so every tile call records an
// "xbar.tile" span under the op and forward span found in its context.
// Its tiles expose CurrentsInto and CurrentsCtxInto, so the MVM
// pipeline takes the same path it takes for the bare model.
type timedModel struct {
	inner funcsim.Model
	tr    *tracer
}

type ctxTile interface {
	CurrentsCtxInto(ctx context.Context, dst, v *linalg.Dense) error
}

func (m timedModel) Name() string { return m.inner.Name() }

func (m timedModel) NewTile(g *linalg.Dense) (funcsim.Tile, error) {
	t, err := m.inner.NewTile(g)
	if err != nil {
		return nil, err
	}
	ct, ok := t.(ctxTile)
	if !ok {
		return nil, fmt.Errorf("perfbench: %s tiles do not take a context", m.inner.Name())
	}
	return timedTile{inner: t, ctx: ct, tr: m.tr}, nil
}

type timedTile struct {
	inner funcsim.Tile
	ctx   ctxTile
	tr    *tracer
}

func (t timedTile) Currents(v *linalg.Dense) (*linalg.Dense, error) { return t.inner.Currents(v) }

func (t timedTile) CurrentsInto(dst, v *linalg.Dense) error {
	return t.CurrentsCtxInto(nil, dst, v)
}

func (t timedTile) CurrentsCtxInto(ctx context.Context, dst, v *linalg.Dense) error {
	start := time.Now()
	err := t.ctx.CurrentsCtxInto(ctx, dst, v)
	sc := spanFrom(ctx)
	t.tr.record(span{name: "xbar.tile", op: sc.op, parent: sc.parent, start: start, end: time.Now()})
	return err
}
