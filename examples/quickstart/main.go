// Quickstart: the end-to-end GENIEx flow on a small crossbar —
// simulate a non-ideal crossbar at circuit level, train the neural
// surrogate on its transfer characteristics, and use the surrogate to
// predict non-ideal MVM outputs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

func main() {
	// 1. Describe the crossbar design point: a 16×16 array with the
	// paper's nominal parasitics and device parameters.
	cfg, err := xbar.NewConfig(16, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("design point:", cfg)

	// 2. Solve one MVM at circuit level (the HSPICE substitute) and
	// compare with the ideal result.
	rng := linalg.NewRNG(42)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(rng.Float64())
	}
	v := make([]float64, cfg.Rows)
	for i := range v {
		v[i] = cfg.Vsupply * rng.Float64()
	}
	xb, err := xbar.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		log.Fatal(err)
	}
	sol, err := xb.Solve(v)
	if err != nil {
		log.Fatal(err)
	}
	ideal := xbar.IdealCurrents(v, g)
	nf := xbar.NF(ideal, sol.Currents, cfg)
	fmt.Printf("circuit solve: %d solver updates, %d inner CG iterations\n",
		sol.NewtonIters, sol.CGIters)
	fmt.Printf("column 0: ideal %.3g A, non-ideal %.3g A (NF %.3f)\n",
		ideal[0], sol.Currents[0], nf[0])

	// 3. Train GENIEx: generate a labelled dataset from the circuit
	// solver, then fit the (N²+N) × P × N surrogate MLP.
	fmt.Println("\ngenerating 300 labelled samples and training GENIEx...")
	ds, err := core.Generate(cfg, core.GenOptions{Samples: 300, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	train, val := ds.Split(0.2, 9)
	model, err := core.NewModel(cfg, 96, 11)
	if err != nil {
		log.Fatal(err)
	}
	if err := model.Train(train, core.TrainOptions{Epochs: 120, Seed: 13}); err != nil {
		log.Fatal(err)
	}

	// 4. Compare fidelity against the linear analytical baseline
	// (Fig. 5 of the paper).
	gx := core.Evaluate(model, val)
	ana := core.Evaluate(core.AnalyticalAdapter{Cfg: cfg}, val)
	fmt.Printf("NF RMSE wrt circuit: GENIEx %.4f, analytical %.4f (%.1fx better)\n",
		gx.RMSENF, ana.RMSENF, ana.RMSENF/gx.RMSENF)

	// 5. Predict a fresh MVM with the surrogate.
	pred := model.NonIdealCurrents(v, g)
	fmt.Printf("column 0 predicted by GENIEx: %.3g A (circuit: %.3g A)\n",
		pred[0], sol.Currents[0])
}
