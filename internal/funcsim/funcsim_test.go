package funcsim

import (
	"math"
	"strings"
	"sync"
	"testing"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// exactConfig is a configuration under which the ideal-model pipeline
// must be bit-exact with the integer dot product: a huge ADC and an
// accumulator wide enough to never saturate, with the accumulator
// resolution equal to the product resolution.
func exactConfig(tileRows, tileCols int) Config {
	cfg := DefaultConfig()
	cfg.Xbar.Rows, cfg.Xbar.Cols = tileRows, tileCols
	cfg.Weight = quant.FxP{Bits: 8, Frac: 4}
	cfg.Act = quant.FxP{Bits: 8, Frac: 4}
	cfg.StreamBits, cfg.SliceBits = 2, 2
	cfg.ADCBits = 30
	cfg.Acc = quant.Acc{Bits: 56, Frac: 8}
	return cfg
}

// quantizedRef computes the reference result: the plain matmul of
// FxP-quantized weights and activations at full accumulation
// precision.
func quantizedRef(cfg Config, x, w *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(x.Rows, w.Cols)
	for b := 0; b < x.Rows; b++ {
		for j := 0; j < w.Cols; j++ {
			var acc int64
			for i := 0; i < w.Rows; i++ {
				acc += cfg.Act.QuantizeSymmetric(x.At(b, i)) * cfg.Weight.QuantizeSymmetric(w.At(i, j))
			}
			out.Set(b, j, float64(acc)/(cfg.Act.Scale()*cfg.Weight.Scale()))
		}
	}
	return out
}

// randConductances draws a tile's Rows×Cols conductances uniformly in
// [Goff, Gon].
func randConductances(cfg xbar.Config, r *linalg.RNG) *linalg.Dense {
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.Goff() + r.Float64()*(cfg.Gon()-cfg.Goff())
	}
	return g
}

func randMatrix(r *linalg.RNG, rows, cols, scaleDen int) *linalg.Dense {
	m := linalg.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Norm() / float64(scaleDen)
	}
	return m
}

// The headline pipeline invariant: with the ideal analog model, enough
// ADC bits and a wide accumulator, the tiled bit-sliced MVM is exactly
// the quantized integer matmul — for every stream/slice width
// combination and for dimensions that don't divide the tile size
// (exercising padding).
func TestIdealPipelineBitExact(t *testing.T) {
	r := linalg.NewRNG(1)
	for _, widths := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {2, 4}, {3, 3}} {
		for _, dims := range [][2]int{{8, 8}, {11, 5}, {20, 9}} {
			cfg := exactConfig(8, 8)
			cfg.StreamBits, cfg.SliceBits = widths[0], widths[1]
			eng, err := NewEngine(cfg, Ideal{})
			if err != nil {
				t.Fatal(err)
			}
			w := randMatrix(r, dims[0], dims[1], 2)
			x := randMatrix(r, 3, dims[0], 2)
			lm, err := eng.Lower(w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lm.MVM(x)
			if err != nil {
				t.Fatal(err)
			}
			want := quantizedRef(cfg, x, w)
			for i := range got.Data {
				if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
					t.Fatalf("widths %v dims %v: out[%d] = %v, want %v",
						widths, dims, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.StreamBits = 0 },
		func(c *Config) { c.SliceBits = 99 },
		func(c *Config) { c.ADCBits = 0 },
		func(c *Config) { c.Acc = quant.Acc{Bits: 1, Frac: 0} },
		func(c *Config) { c.Weight = quant.FxP{Bits: 1, Frac: 0} },
		func(c *Config) { c.Xbar.Ron = -5 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestMVMShapeError(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := eng.Lower(linalg.NewDense(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lm.MVM(linalg.NewDense(2, 9)); err == nil {
		t.Error("expected shape error")
	}
}

// A NaN weight must fail Lower with its position: quantizing NaN gives
// the most negative code, which would silently program negative full
// scale. ±Inf is a value, not a defect: it saturates.
func TestLowerRejectsNaNWeight(t *testing.T) {
	eng, err := NewEngine(exactConfig(8, 8), Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := testWorkload(90, 12, 10, 1)
	w.Set(9, 3, math.NaN())
	if _, err := eng.Lower(w); err == nil || !strings.Contains(err.Error(), "row 9 column 3 is NaN") {
		t.Fatalf("Lower of a NaN weight: err = %v, want one naming row 9 column 3", err)
	}
	w.Set(9, 3, math.Inf(-1))
	if _, err := eng.Lower(w); err != nil {
		t.Fatalf("Lower of a -Inf weight: %v, want it to saturate", err)
	}
}

// A NaN activation must fail the MVM with its position instead of
// running as the most negative input; ±Inf saturates to full scale,
// the same as the largest representable input.
func TestMVMRejectsNaNInput(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(91, 12, 10, 3)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	x.Set(1, 5, math.NaN())
	dst := linalg.NewDense(x.Rows, mat.Out())
	if err := mat.MVMInto(dst, x); err == nil || !strings.Contains(err.Error(), "row 1 column 5 is NaN") {
		t.Fatalf("MVM of a NaN input: err = %v, want one naming row 1 column 5", err)
	}
	x.Set(1, 5, math.Inf(1))
	inf, err := mat.MVM(x)
	if err != nil {
		t.Fatalf("MVM of a +Inf input: %v, want it to saturate", err)
	}
	x.Set(1, 5, cfg.Act.Dequantize(cfg.Act.MaxInt()))
	top, err := mat.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range top.Data {
		if inf.Data[i] != top.Data[i] {
			t.Fatalf("+Inf input: output[%d] = %v, full-scale input gives %v", i, inf.Data[i], top.Data[i])
		}
	}
}

func TestTilingCounts(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Weight = quant.FxP{Bits: 8, Frac: 4}
	cfg.SliceBits = 2
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := eng.Lower(linalg.NewDense(17, 9))
	if err != nil {
		t.Fatal(err)
	}
	tr, tc, slices := lm.Tiles()
	if tr != 3 || tc != 2 || slices != 4 {
		t.Errorf("tiles = (%d,%d,%d), want (3,2,4)", tr, tc, slices)
	}
}

// The accumulator must saturate rather than wrap: drive it with a
// weight matrix of identical large values and verify the output is
// clipped at the accumulator maximum.
func TestAccumulatorSaturates(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Acc = quant.Acc{Bits: 10, Frac: 4} // tiny accumulator: max code 511
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w := linalg.NewDense(8, 1)
	linalg.Fill(w.Data, 7) // max-ish weight value (format 8.4 → max 7.9375)
	x := linalg.NewDense(1, 8)
	linalg.Fill(x.Data, 7)
	lm, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lm.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	maxOut := cfg.Acc.Dequantize(cfg.Acc.Max()) // 511/16 ≈ 31.9
	if got.At(0, 0) != maxOut {
		t.Errorf("saturated output = %v, want %v", got.At(0, 0), maxOut)
	}
}

// A coarse ADC must inject visible quantization error while a fine ADC
// must not.
func TestADCQuantizationEffect(t *testing.T) {
	r := linalg.NewRNG(2)
	w := randMatrix(r, 8, 8, 2)
	x := randMatrix(r, 4, 8, 2)
	errAt := func(adcBits int) float64 {
		cfg := exactConfig(8, 8)
		cfg.ADCBits = adcBits
		eng, err := NewEngine(cfg, Ideal{})
		if err != nil {
			t.Fatal(err)
		}
		lm, err := eng.Lower(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lm.MVM(x)
		if err != nil {
			t.Fatal(err)
		}
		want := quantizedRef(cfg, x, w)
		return linalg.RMSE(got.Data, want.Data)
	}
	coarse := errAt(4)
	fine := errAt(30)
	if fine > 1e-12 {
		t.Errorf("fine ADC error %v should vanish", fine)
	}
	if coarse <= fine {
		t.Errorf("coarse ADC error %v not above fine %v", coarse, fine)
	}
}

// The analytical model through the pipeline must show IR-drop induced
// underestimation: outputs for an all-positive workload fall below the
// ideal pipeline's.
func TestAnalyticalUnderestimates(t *testing.T) {
	cfg := exactConfig(8, 8)
	r := linalg.NewRNG(3)
	w := linalg.NewDense(8, 8)
	for i := range w.Data {
		w.Data[i] = r.Float64() * 4 // positive weights
	}
	x := linalg.NewDense(2, 8)
	for i := range x.Data {
		x.Data[i] = r.Float64() * 4 // positive activations
	}
	run := func(m Model) *linalg.Dense {
		eng, err := NewEngine(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := eng.Lower(w)
		if err != nil {
			t.Fatal(err)
		}
		out, err := lm.MVM(x)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ideal := run(Ideal{})
	ana := run(Analytical{Cfg: cfg.Xbar})
	var below, total int
	for i := range ideal.Data {
		if ideal.Data[i] > 0.5 { // only meaningful magnitudes
			total++
			if ana.Data[i] < ideal.Data[i] {
				below++
			}
		}
	}
	if total == 0 {
		t.Fatal("no meaningful outputs to compare")
	}
	if float64(below)/float64(total) < 0.9 {
		t.Errorf("analytical outputs below ideal in only %d/%d cases", below, total)
	}
}

// trainTinyGENIEx fits a quick surrogate for the tile used in these
// tests. The training set mirrors the workloads the functional
// simulator generates: digit-grid-aligned values with heavy sparsity
// (the paper's stratification argument).
func trainTinyGENIEx(cfg xbar.Config) (*core.Model, error) {
	ds, err := core.Generate(cfg, core.GenOptions{
		Samples:    1200,
		StreamBits: 2, SliceBits: 2,
		Sparsities: []float64{0, 0.25, 0.5, 0.75, 0.9, 0.97},
		Seed:       5,
	})
	if err != nil {
		return nil, err
	}
	m, err := core.NewModel(cfg, 128, 7)
	if err != nil {
		return nil, err
	}
	if err := m.Train(ds, core.TrainOptions{Epochs: 300, BatchSize: 32, LR: 2e-3, Seed: 9}); err != nil {
		return nil, err
	}
	return m, nil
}

// harshGENIEx holds the trainTinyGENIEx surrogate for harshXbar. It is
// trained once per test binary (training dominates the package's race
// run) and only read by the tests that share it.
var harshGENIEx struct {
	once  sync.Once
	model *core.Model
	err   error
}

// sharedHarshGENIEx returns the shared harshXbar surrogate, training it
// on first use; a training error fails every caller.
func sharedHarshGENIEx(t *testing.T) *core.Model {
	t.Helper()
	harshGENIEx.once.Do(func() {
		harshGENIEx.model, harshGENIEx.err = trainTinyGENIEx(harshXbar())
	})
	if harshGENIEx.err != nil {
		t.Fatal(harshGENIEx.err)
	}
	return harshGENIEx.model
}

// harshXbar is an aggressively non-ideal design point (low Ron, low
// ON/OFF ratio, long wires, high supply) where distortion is large
// enough for surrogate quality to be measurable.
func harshXbar() xbar.Config {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	cfg.Ron = 25e3
	cfg.OnOffRatio = 2
	cfg.Rwire = 25
	cfg.Vsupply = 0.5
	return cfg
}

// GENIEx through the pipeline must track the full circuit solver
// better than the ideal model does (i.e. it captures real distortion).
func TestGENIExTileTracksCircuit(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar = harshXbar()
	gx := sharedHarshGENIEx(t)
	r := linalg.NewRNG(4)

	g := linalg.NewDense(8, 8)
	for i := range g.Data {
		g.Data[i] = cfg.Xbar.ConductanceFromLevel(r.Float64())
	}
	v := linalg.NewDense(6, 8)
	for i := range v.Data {
		v.Data[i] = cfg.Xbar.Vsupply * r.Float64()
	}

	circTile, err := Circuit{Cfg: cfg.Xbar}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := circTile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	gxTile, err := GENIEx{Model: gx}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := gxTile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	idTile, err := Ideal{}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := idTile.Currents(v)
	if err != nil {
		t.Fatal(err)
	}
	gxErr := linalg.RMSE(pred.Data, truth.Data)
	idealErr := linalg.RMSE(ideal.Data, truth.Data)
	t.Logf("tile current RMSE: geniex=%.3g ideal=%.3g", gxErr, idealErr)
	if gxErr >= idealErr {
		t.Errorf("GENIEx tile error %v not below ideal-model error %v", gxErr, idealErr)
	}
}

func TestGENIExTileSizeMismatch(t *testing.T) {
	cfg := exactConfig(8, 8)
	gx, err := core.NewModel(cfg.Xbar, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (GENIEx{Model: gx}).NewTile(linalg.NewDense(4, 4)); err == nil {
		t.Error("expected size mismatch error")
	}
}

// buildTinyCNN returns a small trained-ish (randomly initialized but
// structurally complete) CNN for lowering tests.
func buildTinyCNN(r *linalg.RNG) *nn.Sequential {
	geom := nn.ConvGeom{InC: 1, InH: 6, InW: 6, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}
	return nn.NewSequential(
		nn.NewConv2D(geom, false, r),
		nn.NewBatchNorm(2, 36),
		nn.NewReLU(),
		nn.NewResidual(
			nn.NewConv2D(nn.ConvGeom{InC: 2, InH: 6, InW: 6, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}, true, r),
			nn.NewReLU(),
		),
		nn.NewMaxPool2D(2, 6, 6, 2),
		nn.NewFlatten(),
		nn.NewLinear(2*3*3, 4, true, r),
	)
}

// Lowering a network with the ideal model and generous precision must
// reproduce the float network's outputs closely (the only differences
// are quantization).
func TestLoweredNetworkMatchesFloat(t *testing.T) {
	r := linalg.NewRNG(6)
	net := buildTinyCNN(r)
	// Feed a few training batches so BatchNorm has sane running stats.
	for i := 0; i < 10; i++ {
		x := linalg.NewDense(8, 36)
		for j := range x.Data {
			x.Data[j] = r.Norm()
		}
		net.Forward(x, true)
	}

	cfg := exactConfig(8, 8)
	cfg.Weight = quant.FxP{Bits: 16, Frac: 12}
	cfg.Act = quant.FxP{Bits: 16, Frac: 12}
	cfg.StreamBits, cfg.SliceBits = 4, 4
	cfg.Acc = quant.Acc{Bits: 56, Frac: 24}
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}

	x := linalg.NewDense(4, 36)
	for j := range x.Data {
		x.Data[j] = r.Norm()
	}
	want := net.Forward(x, false)
	got, err := sim.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if rmse := linalg.RMSE(got.Data, want.Data); rmse > 0.02 {
		t.Errorf("lowered network deviates from float: RMSE %v", rmse)
	}
}

func TestLoweredNetworkAgreementDegradesWithPrecision(t *testing.T) {
	r := linalg.NewRNG(7)
	net := buildTinyCNN(r)
	for i := 0; i < 10; i++ {
		x := linalg.NewDense(8, 36)
		for j := range x.Data {
			x.Data[j] = r.Norm()
		}
		net.Forward(x, true)
	}
	x := linalg.NewDense(4, 36)
	for j := range x.Data {
		x.Data[j] = r.Norm()
	}
	want := net.Forward(x, false)

	rmseAt := func(bits, frac int) float64 {
		cfg := exactConfig(8, 8)
		cfg.Weight = quant.FxP{Bits: bits, Frac: frac}
		cfg.Act = quant.FxP{Bits: bits, Frac: frac}
		cfg.StreamBits, cfg.SliceBits = 2, 2
		cfg.Acc = quant.Acc{Bits: 56, Frac: 24}
		eng, err := NewEngine(cfg, Ideal{})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Lower(net, eng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		return linalg.RMSE(got.Data, want.Data)
	}
	high := rmseAt(16, 12)
	low := rmseAt(6, 3)
	if low <= high {
		t.Errorf("lower precision should deviate more: 6-bit %v vs 16-bit %v", low, high)
	}
}

func TestDescribe(t *testing.T) {
	r := linalg.NewRNG(8)
	net := buildTinyCNN(r)
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}
	desc := sim.Describe()
	if len(desc) == 0 {
		t.Fatal("empty description")
	}
	if eng.ModelName() != "ideal" {
		t.Errorf("model name %q", eng.ModelName())
	}
}

// The scientific headline end to end: lowering a network with GENIEx
// must approximate the full circuit-in-the-loop execution better than
// assuming ideal crossbars. The tile is 16x16 with strong parasitics:
// at smaller tiles the physical distortion is below one LSB of the
// digit grid and integer rounding absorbs it, leaving nothing for a
// surrogate to model. This drives thousands of real Newton solves, so
// it is skipped in -short mode.
func TestGENIExApproximatesCircuitEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-in-the-loop run is slow")
	}
	if raceDetectorEnabled {
		t.Skip("circuit-in-the-loop run exceeds the test timeout under -race")
	}
	r := linalg.NewRNG(21)
	net := buildTinyCNN(r)
	for i := 0; i < 10; i++ {
		net.Forward(randMatrix(r, 8, 36, 1), true)
	}
	x := randMatrix(r, 1, 36, 1)

	cfg := exactConfig(16, 16)
	cfg.Xbar = harshXbar()
	cfg.Xbar.Rows, cfg.Xbar.Cols = 16, 16
	gx, err := trainTinyGENIEx(cfg.Xbar)
	if err != nil {
		t.Fatal(err)
	}

	run := func(m Model) *linalg.Dense {
		eng, err := NewEngine(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Lower(net, eng)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	truth := run(Circuit{Cfg: cfg.Xbar})
	viaGENIEx := run(GENIEx{Model: gx})
	viaIdeal := run(Ideal{})
	viaAna := run(Analytical{Cfg: cfg.Xbar})

	gxErr := linalg.RMSE(viaGENIEx.Data, truth.Data)
	idealErr := linalg.RMSE(viaIdeal.Data, truth.Data)
	anaErr := linalg.RMSE(viaAna.Data, truth.Data)
	// GENIEx must clearly beat the ideal assumption. The analytical
	// model is logged for context: bit-sliced digit workloads run the
	// devices at low currents where the linear IR-drop term dominates,
	// so the analytical model is a strong baseline in this regime —
	// GENIEx's advantage over it shows on the dense (V, G)
	// distribution of Fig. 5 (see core's tests) and in accuracy
	// prediction (Fig. 7d), not necessarily in per-output RMSE here.
	t.Logf("end-to-end RMSE vs circuit-in-the-loop: geniex=%.4f ideal=%.4f analytical=%.4f", gxErr, idealErr, anaErr)
	if gxErr >= idealErr {
		t.Errorf("GENIEx end-to-end error %v not below ideal-model error %v", gxErr, idealErr)
	}
}

// Non-square tiles must preserve bit-exactness (tiling code paths for
// rows and columns differ).
func TestIdealPipelineNonSquareTile(t *testing.T) {
	r := linalg.NewRNG(31)
	cfg := exactConfig(8, 8)
	cfg.Xbar.Rows, cfg.Xbar.Cols = 6, 10
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w := randMatrix(r, 13, 17, 2)
	x := randMatrix(r, 2, 13, 2)
	lm, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lm.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	want := quantizedRef(cfg, x, w)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("non-square tile mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// All-negative weights must allocate only negative-magnitude crossbars
// plus the (empty) positive planes, and still compute exactly.
func TestAllNegativeWeights(t *testing.T) {
	r := linalg.NewRNG(37)
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w := linalg.NewDense(8, 4)
	for i := range w.Data {
		w.Data[i] = -r.Float64() * 3
	}
	x := randMatrix(r, 3, 8, 2)
	lm, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lm.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	want := quantizedRef(cfg, x, w)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("all-negative mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// fakeLayer is an unlowersable layer type for error-path testing.
type fakeLayer struct{}

func (fakeLayer) Forward(x *linalg.Dense, train bool) *linalg.Dense { return x }
func (fakeLayer) Backward(g *linalg.Dense) *linalg.Dense            { return g }
func (fakeLayer) Params() []*nn.Param                               { return nil }

func TestLowerRejectsUnknownLayer(t *testing.T) {
	eng, err := NewEngine(exactConfig(8, 8), Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(nn.NewSequential(fakeLayer{}), eng); err == nil {
		t.Error("expected error for unknown layer type")
	}
}

// A BatchNorm that does not follow an MVM layer must lower to a
// digital affine transform and match the float network exactly.
func TestStandaloneBatchNormLowersToAffine(t *testing.T) {
	r := linalg.NewRNG(41)
	bn := nn.NewBatchNorm(4, 1)
	for i := 0; i < 10; i++ {
		bn.Forward(randMatrix(r, 8, 4, 1), true)
	}
	net := nn.NewSequential(bn, nn.NewReLU())
	eng, err := NewEngine(exactConfig(8, 8), Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}
	x := randMatrix(r, 3, 4, 1)
	want := net.Forward(x, false)
	got, err := sim.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("affine path mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}
