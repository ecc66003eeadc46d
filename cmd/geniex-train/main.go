// Command geniex-train generates a (V, G, fR) dataset with the
// circuit-level solver, trains a GENIEx surrogate on it, reports the
// Fig. 5 fidelity comparison against the analytical model, and
// optionally saves the trained model for later use with funcsim-run.
//
// Example:
//
//	geniex-train -size 16 -vdd 0.25 -samples 500 -hidden 128 -o geniex16.gob
package main

import (
	"flag"
	"fmt"
	"os"

	"geniex/internal/core"
	"geniex/internal/xbar"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "geniex-train:", err)
		os.Exit(1)
	}
}

// minSamples is the smallest dataset geniex-train accepts: the held-out
// split needs one sample to train on and one to validate against.
const minSamples = 2

func run(args []string) error {
	fs := flag.NewFlagSet("geniex-train", flag.ExitOnError)
	var (
		size     = fs.Int("size", 16, "crossbar rows = cols")
		ron      = fs.Float64("ron", 100e3, "ON resistance (ohms)")
		onoff    = fs.Float64("onoff", 6, "conductance ON/OFF ratio")
		vdd      = fs.Float64("vdd", 0.25, "supply voltage (volts)")
		samples  = fs.Int("samples", 500, "training samples (circuit solves), at least 2")
		hidden   = fs.Int("hidden", 128, "hidden layer width (paper: 500)")
		epochs   = fs.Int("epochs", 150, "training epochs")
		seed     = fs.Uint64("seed", 1, "random seed")
		out      = fs.String("o", "", "output path for the trained model (gob)")
		saveData = fs.String("save-data", "", "also save the generated dataset (gob)")
		loadData = fs.String("load-data", "", "load a previously saved dataset instead of generating")
		verbose  = fs.Bool("v", false, "log per-epoch training loss")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadData == "" && *samples < minSamples {
		return fmt.Errorf("-samples %d: need at least %d, one to train on and one to validate against", *samples, minSamples)
	}

	cfg, err := xbar.NewConfig(*size, *size,
		xbar.WithRon(*ron), xbar.WithOnOffRatio(*onoff), xbar.WithVsupply(*vdd))
	if err != nil {
		return err
	}
	fmt.Println("design point:", cfg.String())

	var ds *core.Dataset
	if *loadData != "" {
		var err error
		if ds, err = core.LoadDatasetFile(*loadData); err != nil {
			return err
		}
		if ds.Len() < minSamples {
			return fmt.Errorf("-load-data %s: %d samples, need at least %d, one to train on and one to validate against", *loadData, ds.Len(), minSamples)
		}
		cfg = ds.Cfg
		fmt.Printf("loaded %d samples from %s (design point %s)\n", ds.Len(), *loadData, cfg.String())
	} else {
		fmt.Printf("generating %d labelled samples with the circuit solver...\n", *samples)
		var err error
		if ds, err = core.Generate(cfg, core.GenOptions{Samples: *samples, Seed: *seed}); err != nil {
			return err
		}
		if *saveData != "" {
			if err := ds.SaveFile(*saveData); err != nil {
				return err
			}
			fmt.Println("dataset saved to", *saveData)
		}
	}
	train, val := ds.Split(0.2, *seed+1)

	model, err := core.NewModel(cfg, *hidden, *seed+2)
	if err != nil {
		return err
	}
	opts := core.TrainOptions{Epochs: *epochs, BatchSize: 32, LR: 1.5e-3, Seed: *seed + 3}
	if *verbose {
		opts.Verbose = os.Stderr
	}
	fmt.Printf("training GENIEx (%d -> %d -> %d) for %d epochs...\n",
		cfg.Rows+cfg.Rows*cfg.Cols, *hidden, cfg.Cols, *epochs)
	if err := model.Train(train, opts); err != nil {
		return err
	}

	gx := core.Evaluate(model, val)
	ana := core.Evaluate(core.AnalyticalAdapter{Cfg: cfg}, val)
	fmt.Printf("held-out NF RMSE:  GENIEx %.4f  analytical %.4f  (%.1fx better)\n",
		gx.RMSENF, ana.RMSENF, ana.RMSENF/gx.RMSENF)
	fmt.Printf("held-out fR RMSE:  GENIEx %.4f  analytical %.4f\n", gx.RMSERatio, ana.RMSERatio)

	if *out != "" {
		if err := model.SaveFile(*out); err != nil {
			return err
		}
		fmt.Println("model saved to", *out)
	}
	return nil
}
