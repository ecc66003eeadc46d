// Package geniex_bench holds one benchmark per paper table/figure plus
// microbenchmarks of the load-bearing kernels. Benchmarks run the
// experiments at tiny scale so `go test -bench=.` completes in
// minutes; use cmd/experiments -scale quick|full for faithful
// reproductions.
package geniex_bench

import (
	"math"
	"testing"
	"time"

	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/experiments"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/models"
	"geniex/internal/xbar"
)

// benchCtx builds a fresh tiny-scale experiment context per benchmark
// so cached CNNs/surrogates don't leak between measurements.
func benchCtx() *experiments.Context {
	return experiments.NewContext(experiments.TinyScale(), nil)
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		ctx := benchCtx()
		if _, err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2a reproduces Fig. 2(a): ideal vs non-ideal currents.
func BenchmarkFig2a(b *testing.B) { runExperiment(b, "2a") }

// BenchmarkFig2b reproduces Fig. 2(b): NF vs crossbar size.
func BenchmarkFig2b(b *testing.B) { runExperiment(b, "2b") }

// BenchmarkFig2c reproduces Fig. 2(c): NF vs ON resistance.
func BenchmarkFig2c(b *testing.B) { runExperiment(b, "2c") }

// BenchmarkFig2d reproduces Fig. 2(d): NF vs ON/OFF ratio.
func BenchmarkFig2d(b *testing.B) { runExperiment(b, "2d") }

// BenchmarkFig3 reproduces Fig. 3: non-linearity vs supply voltage.
func BenchmarkFig3(b *testing.B) { runExperiment(b, "3") }

// BenchmarkFig5 reproduces Fig. 5: NF RMSE of GENIEx vs analytical.
func BenchmarkFig5(b *testing.B) { runExperiment(b, "5") }

// BenchmarkFig7a reproduces Fig. 7(a): accuracy vs crossbar size.
func BenchmarkFig7a(b *testing.B) { runExperiment(b, "7a") }

// BenchmarkFig7b reproduces Fig. 7(b): accuracy vs ON resistance.
func BenchmarkFig7b(b *testing.B) { runExperiment(b, "7b") }

// BenchmarkFig7c reproduces Fig. 7(c): accuracy vs ON/OFF ratio.
func BenchmarkFig7c(b *testing.B) { runExperiment(b, "7c") }

// BenchmarkFig7d reproduces Fig. 7(d): analytical vs GENIEx accuracy.
func BenchmarkFig7d(b *testing.B) { runExperiment(b, "7d") }

// BenchmarkFig8 reproduces Fig. 8: accuracy vs operand precision.
func BenchmarkFig8(b *testing.B) { runExperiment(b, "8") }

// BenchmarkFig9 reproduces Fig. 9: accuracy vs stream/slice widths.
func BenchmarkFig9(b *testing.B) { runExperiment(b, "9") }

// BenchmarkTable3 prints the simulator parameter inventory.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// --- Microbenchmarks of the kernels the experiments are built on ---

// BenchmarkCircuitSolve16 measures one full non-linear circuit solve
// of a 16×16 crossbar (the HSPICE-substitute inner loop).
func BenchmarkCircuitSolve16(b *testing.B) {
	benchmarkCircuitSolve(b, 16)
}

// BenchmarkCircuitSolve32 measures a 32×32 solve.
func BenchmarkCircuitSolve32(b *testing.B) {
	benchmarkCircuitSolve(b, 32)
}

func benchmarkCircuitSolve(b *testing.B, n int) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = n, n
	rng := linalg.NewRNG(1)
	g := linalg.NewDense(n, n)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(rng.Float64())
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = cfg.Vsupply * rng.Float64()
	}
	xb, err := xbar.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xb.Solve(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGENIExForward measures batched surrogate inference with
// cached voltage and conductance contexts (the functional simulator's
// hot path, PredictVGInto); it must report 0 allocs/op.
func BenchmarkGENIExForward(b *testing.B) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	model, err := core.NewModel(cfg, 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := linalg.NewRNG(2)
	g := linalg.NewDense(16, 16)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(rng.Float64())
	}
	gc := model.NewGContext(g)
	v := linalg.NewDense(64, 16)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * rng.Float64()
	}
	vc := model.NewVContext(v)
	dst := linalg.NewDense(v.Rows, cfg.Cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PredictVGInto(dst, vc, gc)
	}
}

// BenchmarkFuncsimConvLayer measures one conv2d-mvm layer through the
// ideal pipeline (tiling + bit slicing + ADC + shift-add).
func BenchmarkFuncsimConvLayer(b *testing.B) {
	set := dataset.SynthCIFAR(8, 8, 1)
	net := models.MiniConvNet(set, 8, 2)
	cfg := funcsim.DefaultConfig()
	cfg.Xbar.Rows, cfg.Xbar.Cols = 16, 16
	eng, err := funcsim.NewEngine(cfg, funcsim.Ideal{})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := funcsim.Lower(net, eng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Forward(set.TestX); err != nil {
			b.Fatal(err)
		}
	}
}

// --- MVM pipeline benchmarks (run with -benchmem) ---

// mvmBench lowers a multi-tile weight matrix under the given model and
// returns the lowered matrix plus an input batch and output buffer.
func mvmBench(b *testing.B, cfg funcsim.Config, model funcsim.Model, in, out, batch int) (*funcsim.Matrix, *linalg.Dense, *linalg.Dense) {
	b.Helper()
	eng, err := funcsim.NewEngine(cfg, model)
	if err != nil {
		b.Fatal(err)
	}
	rng := linalg.NewRNG(3)
	w := linalg.NewDense(in, out)
	for i := range w.Data {
		w.Data[i] = 2*rng.Float64() - 1
	}
	mat, err := eng.Lower(w)
	if err != nil {
		b.Fatal(err)
	}
	x := linalg.NewDense(batch, in)
	for i := range x.Data {
		x.Data[i] = 2*rng.Float64() - 1
	}
	return mat, x, linalg.NewDense(batch, out)
}

func runMVM(b *testing.B, mat *funcsim.Matrix, dst, x *linalg.Dense) {
	b.Helper()
	if err := mat.MVMInto(dst, x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mat.MVMInto(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVMIdeal measures the ideal-model tile pipeline; the
// steady state must report 0 allocs/op (the run pool owns all
// scratch). Serial vs parallel shows the worker-pool speedup on
// multi-core hosts — results are bit-identical either way.
func BenchmarkMVMIdeal(b *testing.B) {
	const in, out, batch = 96, 64, 16 // 6×4 tile grid at 16×16
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := funcsim.DefaultConfig()
			cfg.Xbar.Rows, cfg.Xbar.Cols = 16, 16
			cfg.Workers = bc.workers
			mat, x, dst := mvmBench(b, cfg, funcsim.Ideal{}, in, out, batch)
			runMVM(b, mat, dst, x)
		})
	}
}

// BenchmarkMVMIdealProbed measures the ideal pipeline with the online
// fidelity probe sampling 1 in 16 tile tasks. Throughput should sit
// within a few percent of BenchmarkMVMIdeal/parallel: the sampling
// decision is one atomic add and the shadow solves run on the probe's
// goroutine under its duty-cycle bound. The small allocs/op reading
// here belongs to those background circuit solves (benchmem counts
// every goroutine); the MVM path itself stays at 0 allocs/op
// (TestProbedMVMIntoSteadyStateAllocs).
func BenchmarkMVMIdealProbed(b *testing.B) {
	const in, out, batch = 96, 64, 16 // 6×4 tile grid at 16×16
	cfg := funcsim.DefaultConfig()
	cfg.Xbar.Rows, cfg.Xbar.Cols = 16, 16
	cfg.ProbeRate = 16
	eng, err := funcsim.NewEngine(cfg, funcsim.Ideal{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	rng := linalg.NewRNG(3)
	w := linalg.NewDense(in, out)
	for i := range w.Data {
		w.Data[i] = 2*rng.Float64() - 1
	}
	mat, err := eng.Lower(w)
	if err != nil {
		b.Fatal(err)
	}
	x := linalg.NewDense(batch, in)
	for i := range x.Data {
		x.Data[i] = 2*rng.Float64() - 1
	}
	dst := linalg.NewDense(batch, out)
	runMVM(b, mat, dst, x)
}

// BenchmarkMVMGENIEx measures the surrogate-model pipeline with the
// shared per-block voltage contexts, refilled in place; the steady
// state must report 0 allocs/op. "narrow" is MiniConvNet conv1 at
// serving scale (3×3×3 inputs → 4 channels, one 256-patch batch): its
// tiles evaluate only the 4 of 16 columns the layer reads.
func BenchmarkMVMGENIEx(b *testing.B) {
	cfg := funcsim.DefaultConfig()
	cfg.Xbar.Rows, cfg.Xbar.Cols = 16, 16
	model, err := core.NewModel(cfg.Xbar, 128, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name           string
		workers        int
		in, out, batch int
	}{{"serial", 1, 48, 32, 8}, {"parallel", 0, 48, 32, 8}, {"narrow", 0, 27, 4, 256}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg.Workers = bc.workers
			mat, x, dst := mvmBench(b, cfg, funcsim.GENIEx{Model: model}, bc.in, bc.out, bc.batch)
			runMVM(b, mat, dst, x)
		})
	}
}

// rrmse is the relative root-mean-square divergence between an output
// batch and its reference — the same statistic the online fidelity
// probe reports.
func rrmse(got, ref *linalg.Dense) float64 {
	var num, den float64
	for i := range ref.Data {
		d := got.Data[i] - ref.Data[i]
		num += d * d
		den += ref.Data[i] * ref.Data[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// BenchmarkMVMCircuit measures the circuit-model pipeline. The serial
// baseline pins both the tile tasks (Workers=1) and the batch solver
// (BatchWorkers=1) to one goroutine; the parallel case fans tile tasks
// across the worker pool with the persistent per-tile crossbar pools
// carrying the programmed instances. On a multi-core host the parallel
// case is expected to be ≥2× faster wall-clock; outputs are
// bit-identical in both.
//
// The cold/seeded sub-benchmarks compare the two rung-0 strategies at
// fixed serial execution: cold runs Newton from a zero state (the
// pre-cache behaviour) and seeded starts from the cached MNA
// factorization's direct solve and chord-iterates on the same factor
// (the default). Each is gated on probe-statistic rRMSE against a cold
// reference before timing, so the latency numbers compare matched
// outputs; check.sh runs both once as that gate. Seeded is expected
// ≥10× faster than cold in steady state.
func BenchmarkMVMCircuit(b *testing.B) {
	const in, out, batch = 16, 16, 4 // 2×2 tile grid at 8×8
	serialCfg := func() funcsim.Config {
		cfg := funcsim.DefaultConfig()
		cfg.Xbar.Rows, cfg.Xbar.Cols = 8, 8
		cfg.Workers = 1
		cfg.Xbar.BatchWorkers = 1 // parallelism lives in the tile tasks
		return cfg
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := serialCfg()
			cfg.Workers = bc.workers
			mat, x, dst := mvmBench(b, cfg, funcsim.Circuit{Cfg: cfg.Xbar}, in, out, batch)
			runMVM(b, mat, dst, x)
		})
	}

	coldRef := func(b *testing.B) (*linalg.Dense, *linalg.Dense) {
		cfg := serialCfg()
		cfg.Xbar.Start = xbar.StartCold
		mat, x, ref := mvmBench(b, cfg, funcsim.Circuit{Cfg: cfg.Xbar}, in, out, batch)
		if err := mat.MVMInto(ref, x); err != nil {
			b.Fatal(err)
		}
		return ref, x
	}
	for _, sc := range []struct {
		name  string
		start xbar.SolverStart
	}{{"cold", xbar.StartCold}, {"seeded", xbar.StartSeeded}} {
		b.Run(sc.name, func(b *testing.B) {
			ref, _ := coldRef(b)
			cfg := serialCfg()
			cfg.Xbar.Start = sc.start
			mat, x, dst := mvmBench(b, cfg, funcsim.Circuit{Cfg: cfg.Xbar}, in, out, batch)
			if err := mat.MVMInto(dst, x); err != nil {
				b.Fatal(err)
			}
			if r := rrmse(dst, ref); r > 1e-6 {
				b.Fatalf("%s output diverges from cold reference: rRMSE %g", sc.name, r)
			}
			runMVM(b, mat, dst, x)
		})
	}
}

// BenchmarkSurrogateFit measures what a surrogate for a new design
// point costs: core.Generate labels fresh samples on the circuit
// solver, then core.NewModel + Train fits the MLP. It reports the two
// stages' wall time per fit beside allocations. "32x32" is perfbench's
// surrogate-fit op (400 samples, 64 hidden units, 15 epochs); "64x64"
// is the paper's tile with its 500 hidden units, at 200 samples and 2
// epochs — a FullScale fit (2,000 samples, 150 epochs) scales labels
// by 10× and training by 750×.
func BenchmarkSurrogateFit(b *testing.B) {
	for _, bc := range []struct {
		name                  string
		tile, samples, hidden int
		epochs                int
	}{
		{"32x32", 32, 400, 64, 15},
		{"64x64", 64, 200, 500, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, err := xbar.NewConfig(bc.tile, bc.tile)
			if err != nil {
				b.Fatal(err)
			}
			var label, train time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := uint64(i)
				t0 := time.Now()
				ds, err := core.Generate(cfg, core.GenOptions{Samples: bc.samples, StreamBits: 4, SliceBits: 4, Seed: seed})
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				m, err := core.NewModel(cfg, bc.hidden, seed+1)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Train(ds, core.TrainOptions{Epochs: bc.epochs, Seed: seed + 2}); err != nil {
					b.Fatal(err)
				}
				label += t1.Sub(t0)
				train += time.Since(t1)
			}
			perOp := float64(time.Millisecond) * float64(b.N)
			b.ReportMetric(float64(label)/perOp, "label-ms/op")
			b.ReportMetric(float64(train)/perOp, "train-ms/op")
		})
	}
}

// BenchmarkDatasetGeneration measures labelled (V, G, fR) sample
// production (circuit solves dominate).
func BenchmarkDatasetGeneration(b *testing.B) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(cfg, core.GenOptions{Samples: 16, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
