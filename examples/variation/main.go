// Device variation and mitigation: program a crossbar through an
// imperfect (noisy) write process, quantify the resulting error, and
// show the two remedies the framework offers — a GENIEx surrogate
// trained on the *measured* (noisy) array, which the paper highlights
// as an advantage of data-based models, and per-column gain
// calibration.
//
// Run with: go run ./examples/variation
package main

import (
	"fmt"
	"log"

	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/nonideal"
	"geniex/internal/xbar"
)

func main() {
	cfg, err := xbar.NewConfig(16, 16)
	if err != nil {
		log.Fatal(err)
	}
	// Stuck-at faults first (a stuck cell is stuck regardless of
	// programming noise), then device-to-device variation.
	stuck := &nonideal.StuckAt{POff: 0.02}
	d2d := &nonideal.D2DVariation{Sigma: 0.25}
	variation := nonideal.Stack{stuck, d2d}
	fmt.Println("design point:", cfg)
	fmt.Printf("programming noise: sigma=%.2f, stuck-off=%.0f%%\n\n",
		d2d.Sigma, 100*stuck.POff)

	// Intended weights and the array that actually got programmed.
	rng := linalg.NewRNG(1)
	intent := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range intent.Data {
		intent.Data[i] = cfg.ConductanceFromLevel(rng.Float64())
	}
	actual := intent.Clone()
	if _, err := variation.Apply(actual, xbar.EnvFromConfig(cfg), 99, 0); err != nil {
		log.Fatal(err)
	}

	// Measure the damage at circuit level on a few random reads.
	xb, err := xbar.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := xb.Program(actual); err != nil {
		log.Fatal(err)
	}
	var cleanErr, noisyErr float64
	var n int
	clean, err := xbar.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := clean.Program(intent); err != nil {
		log.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		v := make([]float64, cfg.Rows)
		for i := range v {
			v[i] = cfg.Vsupply * rng.Float64()
		}
		ideal := xbar.IdealCurrents(v, intent)
		solNoisy, err := xb.Solve(v)
		if err != nil {
			log.Fatal(err)
		}
		solClean, err := clean.Solve(v)
		if err != nil {
			log.Fatal(err)
		}
		for j := range ideal {
			cleanErr += abs(solClean.Currents[j] - ideal[j])
			noisyErr += abs(solNoisy.Currents[j] - ideal[j])
			n++
		}
	}
	fmt.Printf("mean |current error| vs intended ideal MVM:\n")
	fmt.Printf("  perfectly programmed array: %.3g A\n", cleanErr/float64(n))
	fmt.Printf("  noisy array:                %.3g A\n\n", noisyErr/float64(n))

	// Mitigation 1: per-column gain calibration of the noisy array.
	calModel := funcsim.Calibrated{Inner: funcsim.Circuit{Cfg: cfg}, Seed: 7, Xbar: cfg}
	calTile, err := calModel.NewTile(actual)
	if err != nil {
		log.Fatal(err)
	}
	rawTile, err := funcsim.Circuit{Cfg: cfg}.NewTile(actual)
	if err != nil {
		log.Fatal(err)
	}
	v := linalg.NewDense(8, cfg.Rows)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * rng.Float64()
	}
	idealOut := linalg.MatMul(v, actual) // calibration targets the array as programmed
	rawOut, err := rawTile.Currents(v)
	if err != nil {
		log.Fatal(err)
	}
	calOut, err := calTile.Currents(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-column gain calibration (distortion of the programmed array):\n")
	fmt.Printf("  uncalibrated RMSE: %.3g A\n", linalg.RMSE(rawOut.Data, idealOut.Data))
	fmt.Printf("  calibrated RMSE:   %.3g A\n\n", linalg.RMSE(calOut.Data, idealOut.Data))

	fmt.Println("takeaway: write noise shifts every MVM; calibration absorbs the average")
	fmt.Println("shift, and a GENIEx surrogate trained on measured (V, I) pairs of the")
	fmt.Println("noisy array captures the data-dependent remainder (see cmd/geniex-train).")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
