package main

import (
	"context"
	"fmt"
	"time"

	"geniex/internal/core"
	"geniex/internal/xbar"
)

// surrogate-fit: one op fits a GENIEx surrogate for a 32×32 design
// point: core.Generate labels fitSamples fresh samples (seeded by the
// workload seed and the op index), then core.NewModel + Train. Every
// sample is a fresh crossbar programming (Program, factor build, one
// solve), beside nn training; funcsim and serve stay idle.
const (
	fitTile    = 32
	fitSamples = 400
	fitHidden  = 64
	fitEpochs  = 15
	// valSamples is the held-out validation set a user labels once per
	// design point; it is the set-up.
	valSamples = 500
	// warmFits is how many times the untimed fit 0 runs before the
	// window. The first fit in a process labels slower (1.5 s against
	// 1 s for the next), and so does a process that follows an idle
	// host, so the window opens after several seconds of fits.
	warmFits = 3
)

func surrogateFit(b *bench) error {
	var (
		cfg xbar.Config
		val *core.Dataset
	)
	err := b.timeSetup(func() error {
		c, err := xbar.NewConfig(fitTile, fitTile)
		if err != nil {
			return err
		}
		v, err := core.Generate(c, core.GenOptions{Samples: valSamples, StreamBits: 4, SliceBits: 4, Seed: 81})
		if err != nil {
			return err
		}
		cfg, val = c, v
		return nil
	})
	if err != nil {
		return err
	}

	// fit runs fit number idx. Fit 0 is the untimed warm-up and the
	// fixed fit the fidelity metrics read, so its seed does not depend
	// on the workload seed; timed windows run fits 1, 2, ... in order.
	fit := func(idx int, tr *tracer, op int64) (*core.Model, time.Time, error) {
		seed := subSeed(b.seed, uint64(idx))
		if idx == 0 {
			seed = 83
		}
		t0 := time.Now()
		ds, err := core.Generate(cfg, core.GenOptions{Samples: fitSamples, StreamBits: 4, SliceBits: 4, Seed: seed})
		t1 := time.Now()
		tr.record(span{name: "core.generate", op: op, parent: op, start: t0, end: t1})
		if err != nil {
			return nil, t1, err
		}
		m, err := core.NewModel(cfg, fitHidden, seed+1)
		if err != nil {
			return nil, time.Now(), err
		}
		t2 := time.Now()
		err = m.Train(ds, core.TrainOptions{Epochs: fitEpochs, Seed: seed + 2})
		t3 := time.Now()
		tr.record(span{name: "core.train", op: op, parent: op, start: t2, end: t3})
		return m, t3, err
	}
	key := func(idx int) string { return fmt.Sprintf("fit-%d", idx) }

	var (
		m0      *core.Model
		warm0   string
		repeats int
	)
	for i := 0; i < warmFits; i++ {
		c0 := readCounts()
		m, _, err := fit(0, nil, 0)
		if err != nil {
			return fmt.Errorf("warm-up fit: %w", err)
		}
		work := readCounts().minus(c0).work()
		if i == 0 {
			m0, warm0 = m, work
		} else if work == warm0 {
			repeats++
		}
	}
	b.check("warm-up-fits-repeat", repeats == warmFits-1, fmt.Sprintf("%d of %d repeats of fit 0 cost the same work", repeats, warmFits-1))
	// Fit 0 is the same in every run, so its counts compare across runs
	// and seeds; the window's fits compare across runs of one seed.
	b.printInputs(inputCounts{key(0): warm0})

	fitted := map[string]*core.Model{}
	op := func(tr *tracer) opFunc {
		return func(_ context.Context, _, seq int) opOut {
			idx := seq + 1
			id := tr.newID()
			start := time.Now()
			m, end, err := fit(idx, tr, id)
			tr.record(span{name: "core.fit", op: id, id: id, start: start, end: end})
			fitted[key(idx)] = m
			return opOut{end: end, input: key(idx), ok: err == nil}
		}
	}
	// Every fit must produce a finite NF RMSE on the validation set;
	// checked after the window so the check costs no window time.
	checkFits := func(w *windowResult) {
		for i := range w.ops {
			r := &w.ops[i]
			if r.ok && !finite(core.Evaluate(fitted[r.input], val).RMSENF) {
				r.ok = false
				w.okCount--
			}
		}
		clear(fitted)
		b.check("funcsim-idle", w.delta[cMVMCalls] == 0, fmt.Sprintf("%g funcsim MVMs in the window", w.delta[cMVMCalls]))
	}

	if !b.traced {
		w := runWindow(b.window, 1, op(nil))
		checkFits(w)
		b.endToEnd(w)
		b.printInputs(w.perInput)
		if _, err := b.gate(); err != nil {
			return err
		}
		nf, curr := fidelity(m0, val)
		b.check("fit-0-fidelity-finite", finite(nf) && finite(curr), fmt.Sprintf("NF RMSE %.4g, current rRMSE %.4g", nf, curr))
		b.set("rrmse_vs_circuit", "ratio", curr)
		b.set("nf_rmse", "ratio", nf)
		return nil
	}

	untraced := runWindow(b.window/2, 1, op(nil))
	checkFits(untraced)
	b.countOps(untraced)
	tr := newTracer()
	traced := runWindow(b.window/2, 1, op(tr))
	checkFits(traced)
	b.countOps(traced)
	b.printInputs(traced.perInput)
	b.checkInputs(untraced.perInput, traced.perInput)
	if _, err := b.gate(); err != nil {
		return err
	}
	b.traceOverhead(untraced, traced)
	b.perLayer(traced, tr.snapshot(), nil)
	return b.writeTrace(tr)
}
