package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geniex/internal/calib"
	"geniex/internal/core"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// runCalib puts two identical GENIEx tiers under live MVM traffic — one
// frozen, one with a background calibrator feeding on the fidelity
// probe and hot-swapping fine-tuned model versions — and requires the
// closed loop to pay off:
//
//   - the calibrated tier's probe rRMSE ends at least 2× lower than
//     the frozen tier's (the drift scenario is a deliberately
//     under-trained surrogate, the stand-in for a model whose device
//     has drifted away from its training data);
//   - at least one fine-tuned version was published by hot-swap;
//   - concurrent MVM clients racing the swaps lose zero requests.
func runCalib(*harness) error {
	start := time.Now()
	// The aggressively non-ideal 8×8 design point the repo's
	// surrogate-quality tests use: distortion large enough that
	// surrogate fidelity is measurable.
	xcfg, err := xbar.NewConfig(8, 8,
		xbar.WithRon(25e3), xbar.WithOnOffRatio(2),
		xbar.WithParasitics(500, 100, 25), xbar.WithVsupply(0.5))
	if err != nil {
		return err
	}

	// The drift scenario: a surrogate trained far too briefly, so its
	// predictions diverge from the circuit the way a production model
	// does after the device drifts from its training data.
	fmt.Println("smoke calib: training deliberately weak GENIEx surrogate...")
	ds, err := core.Generate(xcfg, core.GenOptions{
		Samples:    120,
		StreamBits: 2, SliceBits: 2,
		Sparsities: []float64{0, 0.5},
		Seed:       5,
	})
	if err != nil {
		return err
	}
	weak, err := core.NewModel(xcfg, 24, 7)
	if err != nil {
		return err
	}
	if err := weak.Train(ds, core.TrainOptions{Epochs: 3, BatchSize: 32, LR: 1e-3, Seed: 9}); err != nil {
		return err
	}

	newEngine := func(swappable bool) (*funcsim.Engine, *funcsim.Matrix, *linalg.Dense, error) {
		opts := []funcsim.Option{
			funcsim.WithStreamBits(2), funcsim.WithSliceBits(2),
			funcsim.WithProbeRate(1),
		}
		if swappable {
			opts = append(opts, funcsim.WithSwappable())
		}
		cfg, err := funcsim.NewConfig(xcfg, opts...)
		if err != nil {
			return nil, nil, nil, err
		}
		eng, err := funcsim.NewEngine(cfg, funcsim.GENIEx{Model: weak})
		if err != nil {
			return nil, nil, nil, err
		}
		rng := linalg.NewRNG(31)
		w := linalg.NewDense(20, 12) // 3×2 tile grid
		for i := range w.Data {
			w.Data[i] = 2*rng.Float64() - 1
		}
		x := linalg.NewDense(4, 20)
		for i := range x.Data {
			x.Data[i] = 2*rng.Float64() - 1
		}
		mat, err := eng.Lower(w)
		if err != nil {
			eng.Close()
			return nil, nil, nil, err
		}
		return eng, mat, x, nil
	}

	frozenEng, frozenMat, x, err := newEngine(false)
	if err != nil {
		return err
	}
	defer frozenEng.Close()
	calEng, calMat, _, err := newEngine(true)
	if err != nil {
		return err
	}
	defer calEng.Close()

	cal, err := calib.New(calib.Config{
		Model: weak,
		Probe: calEng.Probe(),
		Swap: func(m *core.Model) (int64, error) {
			return calEng.SwapModel(funcsim.GENIEx{Model: m})
		},
		// Always-triggered (no SLO/drift gates): the weak surrogate is
		// out of spec by construction, and the gate is about the loop
		// working, not the trigger tuning.
		MinSamples:     48,
		Steps:          400,
		DutyFactor:     1,
		MinImprovement: 0.01,
		Seed:           7,
	})
	if err != nil {
		return err
	}
	defer cal.Close()

	// Concurrent MVM clients on both tiers, racing whatever hot-swaps
	// the calibrator performs. The "zero dropped requests" gate: every
	// MVM must succeed.
	var (
		quit    atomic.Bool
		mvmErrs atomic.Int64
		mvms    atomic.Int64
		wg      sync.WaitGroup
	)
	const clients = 3
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			yf := linalg.NewDense(x.Rows, frozenMat.Out())
			yc := linalg.NewDense(x.Rows, calMat.Out())
			for !quit.Load() {
				if err := frozenMat.MVMInto(yf, x); err != nil {
					mvmErrs.Add(1)
					return
				}
				if err := calMat.MVMInto(yc, x); err != nil {
					mvmErrs.Add(1)
					return
				}
				mvms.Add(2)
			}
		}()
	}

	// Let traffic flow until the calibrator has published at least two
	// versions (one publish is the gate; two proves the loop keeps
	// going), or a generous deadline passes.
	deadline := time.Now().Add(90 * time.Second)
	for cal.Stats().Published < 2 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
	}
	quit.Store(true)
	wg.Wait()

	st := cal.Stats()
	fmt.Printf("smoke calib: %d MVMs under swaps, %s\n", mvms.Load(), st)
	if mvmErrs.Load() != 0 {
		return fmt.Errorf("%d MVMs failed while racing hot-swaps", mvmErrs.Load())
	}
	if st.Published < 1 {
		return fmt.Errorf("calibrator published no fine-tuned version (rounds %d, captured %d)",
			st.Rounds, st.Reservoir.Captured)
	}
	if v := calEng.ModelVersion(); v < 2 {
		return fmt.Errorf("calibrated engine still at version %d after %d publishes", v, st.Published)
	}
	if v := frozenEng.ModelVersion(); v != 1 {
		return fmt.Errorf("frozen engine advanced to version %d", v)
	}

	// Refresh both probes' EWMA against the tiers' current models: the
	// frozen tier still runs the weak surrogate, the calibrated tier
	// its latest published version. The EWMA weighs the last ~20
	// probes, so a fresh serial burst makes it reflect current
	// fidelity, not history.
	fmt.Println("smoke calib: refreshing probe fidelity gauges...")
	for i := 0; i < 120; i++ {
		if _, err := frozenMat.MVM(x); err != nil {
			return err
		}
		if _, err := calMat.MVM(x); err != nil {
			return err
		}
		time.Sleep(10 * time.Millisecond) // let the paced probes sample fresh solves
	}
	frozenEng.Probe().Drain(30 * time.Second)
	calEng.Probe().Drain(30 * time.Second)

	frozen := frozenEng.Probe().Stats()
	calibrated := calEng.Probe().Stats()
	fmt.Printf("smoke calib: probe rRMSE EWMA: frozen %.4f (%d solves), calibrated %.4f (%d solves)\n",
		frozen.RRMSEEWMA, frozen.Solved, calibrated.RRMSEEWMA, calibrated.Solved)
	if frozen.Solved == 0 || calibrated.Solved == 0 {
		return fmt.Errorf("probes did not solve (frozen %d, calibrated %d)", frozen.Solved, calibrated.Solved)
	}
	if calibrated.RRMSEEWMA <= 0 {
		return fmt.Errorf("calibrated tier reports non-positive rRMSE EWMA %g", calibrated.RRMSEEWMA)
	}
	if frozen.RRMSEEWMA < 2*calibrated.RRMSEEWMA {
		return fmt.Errorf("calibration did not pay off: frozen rRMSE %.4f < 2× calibrated %.4f",
			frozen.RRMSEEWMA, calibrated.RRMSEEWMA)
	}
	fmt.Printf("smoke calib: done in %.1fs\n", time.Since(start).Seconds())
	return nil
}
