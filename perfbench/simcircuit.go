package main

import (
	"context"
	"fmt"
	"time"

	"geniex/internal/core"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/xbar"
)

// sim-circuit: one op is Sim.ForwardContext on one image at the
// circuit tier on 8×8 tiles, one caller in a closed loop over a fixed
// cycle of images. Circuit solves are nearly all of its time; xbar is
// programmed once at lowering and solved many times.
//
// The cycle's images are the same for every seed and the seed sets
// their order: images differ by ~5% in solver work, and with only a
// handful of ops per window, drawing them from the seed would put that
// difference into the seed-to-seed spread.
const (
	simTile  = 8
	simCycle = 2
)

func simCircuit(b *bench) error {
	var (
		net *nn.Sequential
		cfg funcsim.Config
		sim *funcsim.Sim
	)
	err := b.timeSetup(func() error {
		_, n, err := trainCNN()
		if err != nil {
			return err
		}
		c, err := simConfig(simTile)
		if err != nil {
			return err
		}
		s, err := lower(n, c, funcsim.Circuit{Cfg: c.Xbar})
		if err != nil {
			return err
		}
		net, cfg, sim = n, c, s
		return nil
	})
	if err != nil {
		return err
	}

	imgs := images(simCycle, 13)
	first := int(b.seed % simCycle)
	key := func(i int) string { return fmt.Sprintf("image-%d", i) }
	// The first, untimed pass warms the host and the solver pools; its
	// logits are each image's reference.
	refs := make([][]float64, len(imgs))
	for i, x := range imgs {
		y, err := sim.Forward(x)
		if err != nil {
			return fmt.Errorf("warm-up image %d: %w", i, err)
		}
		refs[i] = append([]float64(nil), y.Data...)
	}
	op := func(s *funcsim.Sim, tr *tracer) opFunc {
		return func(ctx context.Context, _, seq int) opOut {
			i := (first + seq) % len(imgs)
			id := tr.newID()
			if tr != nil {
				ctx = withSpan(ctx, id, id)
			}
			start := time.Now()
			y, err := s.ForwardContext(ctx, imgs[i])
			end := time.Now()
			tr.record(span{name: "funcsim.forward", op: id, id: id, start: start, end: end})
			return opOut{end: end, input: key(i), ok: err == nil && rrmse(y.Data, refs[i]) <= opTolerance}
		}
	}

	if !b.traced {
		w := runWindow(b.window, 1, op(sim, nil))
		b.endToEnd(w)
		b.printInputs(w.perInput)
		b.note("counts digest %s", w.perInput.digest())
		if _, err := b.gate(); err != nil {
			return err
		}
		nf, err := b.solverNF()
		if err != nil {
			return err
		}
		gap, err := idealGap(net, cfg, imgs, refs)
		if err != nil {
			return err
		}
		b.set("rrmse_vs_circuit", "ratio", gap)
		b.set("nf_rmse", "ratio", nf)
		return nil
	}

	untraced := runWindow(b.window/2, 1, op(sim, nil))
	b.countOps(untraced)
	tr := newTracer()
	simT, err := lower(net, cfg, timedModel{inner: funcsim.Circuit{Cfg: cfg.Xbar}, tr: tr})
	if err != nil {
		return err
	}
	for _, x := range imgs {
		if _, err := simT.Forward(x); err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
	}
	tr.reset()
	traced := runWindow(b.window/2, 1, op(simT, tr))
	b.countOps(traced)
	b.printInputs(traced.perInput)
	b.note("counts digest %s", traced.perInput.digest())
	b.checkInputs(untraced.perInput, traced.perInput)
	if _, err := b.gate(); err != nil {
		return err
	}
	b.traceOverhead(untraced, traced)
	b.perLayer(traced, tr.snapshot(), nil)
	return b.writeTrace(tr)
}

// idealGap is sim-circuit's rrmse_vs_circuit: the ideal tier's logits
// on the cycle images against the circuit tier's (refs). Its outputs
// are the circuit reference itself, so its fidelity metrics report the
// non-ideality the circuit resolves. They move when the circuit model
// changes, not with solver round-off: seeded and cold solves differ by
// ~1e-11, which any solver change moves by large factors.
func idealGap(net *nn.Sequential, cfg funcsim.Config, imgs []*linalg.Dense, refs [][]float64) (float64, error) {
	sim, err := lower(net, cfg, funcsim.Ideal{})
	if err != nil {
		return 0, err
	}
	var got, want []float64
	for i, x := range imgs {
		y, err := sim.Forward(x)
		if err != nil {
			return 0, fmt.Errorf("ideal tier, image %d: %w", i, err)
		}
		got = append(got, y.Data...)
		want = append(want, refs[i]...)
	}
	return rrmse(got, want), nil
}

// solverNF labels 64 fixed 8×8 samples with cold-start solves, checks
// the default seeded solver against them (current rRMSE ≤ 1e-6), and
// returns Fig. 5's NF RMSE of the ideal model on them.
func (b *bench) solverNF() (float64, error) {
	cold, err := xbar.NewConfig(simTile, simTile, xbar.WithStart(xbar.StartCold))
	if err != nil {
		return 0, err
	}
	ds, err := core.Generate(cold, core.GenOptions{Samples: 64, StreamBits: 4, SliceBits: 4, Seed: 91})
	if err != nil {
		return 0, err
	}
	seeded := cold
	seeded.Start = xbar.StartSeeded
	xb, err := xbar.New(seeded)
	if err != nil {
		return 0, err
	}
	nf, curr := fidelity(seededSolver{xb}, ds)
	b.check("seeded-vs-cold-currents", finite(nf) && curr <= opTolerance, fmt.Sprintf("NF RMSE %.3g, current rRMSE %.3g", nf, curr))
	return core.Evaluate(idealModel{}, ds).RMSENF, nil
}

// idealModel is the crossbar without non-idealities.
type idealModel struct{}

func (idealModel) NonIdealCurrents(v []float64, g *linalg.Dense) []float64 {
	return xbar.IdealCurrents(v, g)
}
