// Command funcsim-run trains a CNN on one of the synthetic datasets
// and evaluates it through the functional simulator under a chosen
// analog crossbar model, reporting top-1 accuracy — one point of the
// paper's Figs. 7–9.
//
// Example:
//
//	funcsim-run -dataset cifar -mode geniex -size 16 -streams 4 -slices 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/models"
	"geniex/internal/obs"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "funcsim-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dsName    = flag.String("dataset", "cifar", "dataset: cifar or imagenet")
		mode      = flag.String("mode", "geniex", "analog model: "+strings.Join(funcsim.ModelNames(), ", "))
		size      = flag.Int("size", 16, "crossbar (tile) size")
		vdd       = flag.Float64("vdd", 0.25, "supply voltage (volts)")
		ron       = flag.Float64("ron", 100e3, "ON resistance (ohms)")
		onoff     = flag.Float64("onoff", 6, "conductance ON/OFF ratio")
		bits      = flag.Int("bits", 16, "weight/activation precision")
		streams   = flag.Int("streams", 4, "input stream width (bits)")
		slices    = flag.Int("slices", 4, "weight slice width (bits)")
		adc       = flag.Int("adc", 14, "ADC bits")
		nTrain    = flag.Int("train", 1500, "training images")
		nTest     = flag.Int("test", 200, "test images")
		epochs    = flag.Int("epochs", 10, "CNN training epochs")
		chans     = flag.Int("channels", 8, "CNN width")
		geniexM   = flag.String("geniex-model", "", "load a pretrained GENIEx model (gob) instead of training one")
		calibrate = flag.Bool("calibrate", false, "apply per-column gain calibration to the analog model")
		noise     = flag.Float64("noise", 0, "read-noise sigma as a fraction of full-scale current")
		degraded  = flag.Bool("degraded", false, "circuit mode: continue with zeroed currents for batch items that fail even after recovery")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "concurrent tile tasks per MVM: 0 = all cores, 1 = serial (results are bit-identical at any setting)")
		batchWork = flag.Int("batch-workers", -1, "circuit modes: concurrent solves inside one tile's batch (-1 = auto: 1 when tile tasks already fan out, else all cores)")

		gxSamples = flag.Int("geniex-samples", 500, "geniex mode: dataset samples for surrogate training")
		gxEpochs  = flag.Int("geniex-epochs", 150, "geniex mode: surrogate training epochs")

		metricsAddr   = flag.String("metrics-addr", "", "serve the obs metrics snapshot over HTTP on this address (e.g. 127.0.0.1:0); empty disables")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the run finishes")
		withPprof     = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the metrics address")
		probeRate     = flag.Int("probe-rate", 0, "sample 1 in n tile MVMs through the circuit solver to measure live emulator fidelity (0 disables)")
		traceOut      = flag.String("trace-out", "", "write recorded spans as Chrome trace-event JSON to this file after the run")
	)
	flag.Parse()

	if *metricsAddr != "" {
		addr, err := obs.Serve(*metricsAddr, *withPprof)
		if err != nil {
			return err
		}
		fmt.Printf("metrics: serving on http://%s/metrics\n", addr)
		if *metricsLinger > 0 {
			defer func() {
				fmt.Printf("metrics: lingering %s before exit\n", *metricsLinger)
				time.Sleep(*metricsLinger)
			}()
		}
	}

	var set *dataset.Set
	switch *dsName {
	case "cifar":
		set = dataset.SynthCIFAR(*nTrain, *nTest, *seed+10)
	case "imagenet":
		set = dataset.SynthImageNet(*nTrain, *nTest, *seed+20)
	default:
		return fmt.Errorf("unknown dataset %q", *dsName)
	}

	spec, err := funcsim.ModelByName(*mode)
	if err != nil {
		return err
	}
	// Batch-level concurrency inside circuit tile solves is correct at
	// any setting: pooled circuit batches are bit-identical at any
	// BatchWorkers count, including nested under the tile fan-out
	// (TestMVMCircuitBatchWorkersBitIdentical). The auto default still
	// picks 1 when tile tasks already fan out across the cores: a
	// nested solve recruits only idle workers, so it adds no
	// parallelism there, but it splits each batch into smaller blocks
	// to spread it. -batch-workers overrides the heuristic for
	// flat workloads (one huge tile) where intra-batch concurrency is
	// the only parallelism available.
	batchWorkers := *batchWork
	if batchWorkers < 0 {
		batchWorkers = 0
		if spec.Circuit && *workers != 1 {
			batchWorkers = 1
		}
	}
	xcfg, err := xbar.NewConfig(*size, *size,
		xbar.WithVsupply(*vdd), xbar.WithRon(*ron), xbar.WithOnOffRatio(*onoff),
		xbar.WithBatchWorkers(batchWorkers))
	if err != nil {
		return err
	}
	fxp := quant.FxP{Bits: *bits, Frac: *bits - 3}
	simCfg, err := funcsim.NewConfig(xcfg,
		funcsim.WithFormats(fxp, fxp),
		funcsim.WithStreamBits(*streams), funcsim.WithSliceBits(*slices),
		funcsim.WithADCBits(*adc), funcsim.WithWorkers(*workers),
		funcsim.WithProbeRate(*probeRate))
	if err != nil {
		return err
	}

	fmt.Printf("training MiniResNet on %s (%d images, %d epochs)...\n", set.Name, *nTrain, *epochs)
	net := models.MiniResNet(set, *chans, *seed+30)
	if err := models.Train(net, set, models.TrainConfig{
		Epochs: *epochs, BatchSize: 32, LR: 0.05, Seed: *seed + 40, Verbose: os.Stderr,
	}); err != nil {
		return err
	}
	floatAcc := models.TestAccuracy(net, set, 64)
	fmt.Printf("float32 accuracy: %.2f%%\n", 100*floatAcc)

	// Build the analog model through the tier table: the spec says what
	// the factory needs (solver health for circuit tiers, a trained
	// surrogate for GENIEx tiers); the tier-name switch that used to
	// live here is gone.
	params := funcsim.ModelParams{Xbar: simCfg.Xbar, Degraded: *degraded}
	var health *funcsim.SolverHealth
	if spec.Circuit {
		health = &funcsim.SolverHealth{}
		params.Health = health
	}
	if spec.NeedsSurrogate {
		var gx *core.Model
		if *geniexM != "" {
			var err error
			if gx, err = core.LoadModelFile(*geniexM); err != nil {
				return err
			}
			if gx.Cfg.Rows != *size {
				return fmt.Errorf("loaded GENIEx model is %dx%d, need %dx%d",
					gx.Cfg.Rows, gx.Cfg.Cols, *size, *size)
			}
		} else {
			fmt.Println("training GENIEx surrogate for the design point...")
			ds, err := core.Generate(simCfg.Xbar, core.GenOptions{
				Samples:    *gxSamples,
				StreamBits: *streams, SliceBits: *slices,
				Sparsities: []float64{0, 0.25, 0.5, 0.75, 0.9, 0.97},
				Seed:       *seed + 50,
			})
			if err != nil {
				return err
			}
			if gx, err = core.NewModel(simCfg.Xbar, 128, *seed+60); err != nil {
				return err
			}
			if err := gx.Train(ds, core.TrainOptions{Epochs: *gxEpochs, Seed: *seed + 70}); err != nil {
				return err
			}
		}
		params.Surrogate = gx
	}
	model, err := spec.New(params)
	if err != nil {
		return err
	}
	if *noise > 0 {
		model = &funcsim.Noisy{
			Inner: model, Sigma: *noise,
			FullScale: float64(simCfg.Xbar.Rows) * simCfg.Xbar.Vsupply * simCfg.Xbar.Gon(),
			Seed:      *seed + 80,
		}
	}
	if *calibrate {
		model = funcsim.Calibrated{Inner: model, Seed: *seed + 90, Xbar: simCfg.Xbar}
	}

	fmt.Printf("evaluating through the functional simulator (%s mode, %s)...\n",
		model.Name(), simCfg.Xbar.String())
	eng, err := funcsim.NewEngine(simCfg, model)
	if err != nil {
		return err
	}
	defer eng.Close()
	sim, err := funcsim.Lower(net, eng)
	if err != nil {
		return err
	}
	for _, line := range sim.Describe() {
		fmt.Println("  ", line)
	}
	acc, err := models.Accuracy(sim.Forward, set.TestX, set.TestY, 32)
	if err != nil {
		return err
	}
	fmt.Printf("crossbar accuracy: %.2f%%  (degradation %.2f%%)\n", 100*acc, 100*(floatAcc-acc))
	if health != nil {
		fmt.Println(health.Counts().String())
	}
	if p := eng.Probe(); p != nil {
		p.Drain(10 * time.Second)
		fmt.Println(p.Stats().String())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		n, err := obs.WriteTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (%d events)\n", *traceOut, n)
	}
	return nil
}
