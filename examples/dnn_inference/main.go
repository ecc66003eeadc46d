// DNN inference on non-ideal crossbars: train a small residual CNN on
// the synthetic CIFAR stand-in, lower it onto the functional simulator
// (tiling + bit-slicing), and compare classification accuracy under
// the ideal, analytical and GENIEx crossbar models — a miniature of
// the paper's Fig. 7(d).
//
// Run with: go run ./examples/dnn_inference
package main

import (
	"fmt"
	"log"
	"os"

	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/models"
	"geniex/internal/xbar"
)

func main() {
	// 1. Data and float model.
	set := dataset.SynthCIFAR(800, 120, 1)
	net := models.MiniResNet(set, 8, 2)
	fmt.Println("training MiniResNet (8 channels) on", set.Name, "...")
	if err := models.Train(net, set, models.TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.05, Seed: 3, Verbose: os.Stderr,
	}); err != nil {
		log.Fatal(err)
	}
	floatAcc := models.TestAccuracy(net, set, 64)
	fmt.Printf("float32 accuracy: %.2f%%\n\n", 100*floatAcc)

	// 2. Architecture: 16×16 tiles, 16-bit operands, 4-bit streams and
	// slices, 14-bit ADC (the paper's Table 3 defaults).
	xcfg, err := xbar.NewConfig(16, 16)
	if err != nil {
		log.Fatal(err)
	}
	simCfg, err := funcsim.NewConfig(xcfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the GENIEx surrogate for this design point.
	fmt.Println("training GENIEx surrogate for", simCfg.Xbar.String(), "...")
	ds, err := core.Generate(simCfg.Xbar, core.GenOptions{Samples: 400, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	gx, err := core.NewModel(simCfg.Xbar, 96, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := gx.Train(ds, core.TrainOptions{Epochs: 120, Seed: 9}); err != nil {
		log.Fatal(err)
	}

	// 4. Evaluate the simulation modes through the tier table, in
	// fidelity-ladder order (the paper compares ideal, analytical and
	// GENIEx; the circuit tiers are skipped here to keep the example
	// fast).
	for _, name := range []string{"geniex", "analytical", "ideal"} {
		spec, err := funcsim.ModelByName(name)
		if err != nil {
			log.Fatal(err)
		}
		params := funcsim.ModelParams{Xbar: simCfg.Xbar}
		if spec.NeedsSurrogate {
			params.Surrogate = gx
		}
		model, err := spec.New(params)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := funcsim.NewEngine(simCfg, model)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := funcsim.Lower(net, eng)
		if err != nil {
			log.Fatal(err)
		}
		acc, err := models.Accuracy(sim.Forward, set.TestX, set.TestY, 32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s accuracy: %6.2f%%  (degradation %+.2f%%)\n",
			name, 100*acc, 100*(floatAcc-acc))
	}
	fmt.Println("\nthe analytical model, blind to device non-linearity, overestimates the degradation.")
}
