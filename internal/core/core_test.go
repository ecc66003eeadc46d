package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/nonideal"
	"geniex/internal/xbar"
)

// testConfig is a small, fast design point used throughout the tests.
func testConfig() xbar.Config {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	return cfg
}

func testDataset(t *testing.T, cfg xbar.Config, n int, seed uint64) *Dataset {
	t.Helper()
	ds, err := Generate(cfg, GenOptions{Samples: n, StreamBits: 4, SliceBits: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateShapesAndRanges(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 20, 1)
	if ds.Len() != 20 || ds.V.Cols != 8 || ds.G.Cols != 64 || ds.FR.Cols != 8 {
		t.Fatalf("dataset shapes wrong: %d, %d, %d, %d", ds.Len(), ds.V.Cols, ds.G.Cols, ds.FR.Cols)
	}
	for _, v := range ds.V.Data {
		if v < 0 || v > cfg.Vsupply {
			t.Fatalf("voltage %v out of range", v)
		}
	}
	for _, g := range ds.G.Data {
		if g < cfg.Goff()*(1-1e-9) || g > cfg.Gon()*(1+1e-9) {
			t.Fatalf("conductance %v out of window", g)
		}
	}
	for _, f := range ds.FR.Data {
		if math.IsNaN(f) || f <= 0 {
			t.Fatalf("fR label %v invalid", f)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := testConfig()
	a := testDataset(t, cfg, 10, 7)
	b := testDataset(t, cfg, 10, 7)
	for i := range a.FR.Data {
		if a.FR.Data[i] != b.FR.Data[i] {
			t.Fatalf("same seed produced different labels at %d", i)
		}
	}
}

func TestGenerateStreamGridAlignment(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 10, 2)
	// With StreamBits=4, voltages must sit on the 15-level grid.
	for _, v := range ds.V.Data {
		lv := v / cfg.Vsupply * 15
		if math.Abs(lv-math.Round(lv)) > 1e-9 {
			t.Fatalf("voltage %v off the 4-bit grid", v)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := Generate(cfg, GenOptions{Samples: 0}); err == nil {
		t.Error("expected error for zero samples")
	}
	cfg.Ron = -1
	if _, err := Generate(cfg, GenOptions{Samples: 5}); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestSplit(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 20, 3)
	train, val := ds.Split(0.25, 9)
	if train.Len() != 15 || val.Len() != 5 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
	// The union of rows must be a permutation of the original: check
	// via multiset of first voltages.
	count := map[float64]int{}
	for s := 0; s < ds.Len(); s++ {
		count[ds.V.At(s, 0)]++
	}
	for s := 0; s < train.Len(); s++ {
		count[train.V.At(s, 0)]--
	}
	for s := 0; s < val.Len(); s++ {
		count[val.V.At(s, 0)]--
	}
	for v, c := range count {
		if c != 0 {
			t.Fatalf("value %v appears with residual count %d", v, c)
		}
	}
}

// trainSmallModel trains a compact GENIEx for the shared config and
// caches nothing: tests each train their own for isolation.
func trainSmallModel(t *testing.T, ds *Dataset, hidden, epochs int) *Model {
	t.Helper()
	m, err := NewModel(ds.Cfg, hidden, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ds, TrainOptions{Epochs: epochs, BatchSize: 16, LR: 2e-3, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelTrainingReducesError(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 150, 5)
	train, val := ds.Split(0.2, 17)

	untrained, err := NewModel(cfg, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	untrained.FRMin, untrained.FRMax = 0.5, 2 // sane denormalization for the baseline
	before := Evaluate(untrained, val)

	m := trainSmallModel(t, train, 48, 150)
	after := Evaluate(m, val)
	if after.RMSENF >= before.RMSENF {
		t.Errorf("training did not reduce NF RMSE: %v -> %v", before.RMSENF, after.RMSENF)
	}
}

// The paper's headline (Fig. 5): GENIEx tracks the circuit better than
// the linear analytical model once device non-linearity matters.
func TestGENIExBeatsAnalyticalAtHighVoltage(t *testing.T) {
	cfg := testConfig()
	cfg.Vsupply = 0.5 // strong non-linearity regime
	ds, err := Generate(cfg, GenOptions{Samples: 260, StreamBits: 4, SliceBits: 4, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	train, val := ds.Split(0.2, 23)
	m := trainSmallModel(t, train, 64, 220)

	geniex := Evaluate(m, val)
	analytical := Evaluate(AnalyticalAdapter{Cfg: cfg}, val)
	t.Logf("NF RMSE: GENIEx=%.4f analytical=%.4f", geniex.RMSENF, analytical.RMSENF)
	if geniex.RMSENF >= analytical.RMSENF {
		t.Errorf("GENIEx NF RMSE %v not better than analytical %v", geniex.RMSENF, analytical.RMSENF)
	}
}

func TestPredictWithContextMatchesNetForward(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 40, 29)
	m := trainSmallModel(t, ds, 32, 30)

	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	copy(g.Data, ds.G.Row(0))
	ctx := m.NewGContext(g)

	batch := linalg.NewDense(3, cfg.Rows)
	for b := 0; b < 3; b++ {
		copy(batch.Row(b), ds.V.Row(b))
	}
	fast := m.PredictWithContext(batch, ctx)

	// Reference: full [V|G] forward through the Sequential.
	for b := 0; b < 3; b++ {
		in := linalg.NewDense(1, cfg.Rows+cfg.Rows*cfg.Cols)
		m.normalizeV(in.Row(0)[:cfg.Rows], batch.Row(b))
		m.normalizeG(in.Row(0)[cfg.Rows:], g.Data)
		raw := nn.NewSequential(m.L1, nn.NewReLU(), m.L2).Forward(in, false)
		span := m.FRMax - m.FRMin
		for j := 0; j < cfg.Cols; j++ {
			want := m.FRMin + raw.At(0, j)*span
			if math.Abs(fast.At(b, j)-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("context path (%d,%d) = %v, reference %v", b, j, fast.At(b, j), want)
			}
		}
	}
}

// PredictVGInto's fused gather must equal, bit for bit, the two-pass
// form it replaced: ReLU into a hidden matrix, a zero-skipping ikj
// product with W2, then the rescale. Hidden units are driven to
// pre-activations of exactly 0, negative values and NaN, which the
// gather must drop just as ReLU and the zero skip do.
func TestPredictVGIntoMatchesTwoPass(t *testing.T) {
	for _, cols := range []int{5, 16} {
		for _, hidden := range []int{7, 300} {
			cfg := xbar.DefaultConfig()
			cfg.Rows, cfg.Cols = 4, cols
			m, err := NewModel(cfg, hidden, uint64(cols*1000+hidden))
			if err != nil {
				t.Fatal(err)
			}
			r := linalg.NewRNG(uint64(hidden))
			w1, b1 := m.L1.Weight.W, m.L1.Bias.W.Data
			for j := 0; j < hidden; j++ {
				switch j % 5 {
				case 0: // h = 0 exactly: no input reaches unit j
					for i := 0; i < w1.Rows; i++ {
						w1.Set(i, j, 0)
					}
					b1[j] = 0
				case 1:
					b1[j] = -100
				default:
					b1[j] = 0.5 * r.Norm()
				}
			}
			b1[hidden-1] = math.NaN()
			for i := range m.L2.Bias.W.Data {
				m.L2.Bias.W.Data[i] = r.Norm()
			}
			m.FRMin, m.FRMax = 0.9, 1.05

			g := linalg.NewDense(cfg.Rows, cfg.Cols)
			for i := range g.Data {
				g.Data[i] = cfg.Goff() + r.Float64()*(cfg.Gon()-cfg.Goff())
			}
			v := linalg.NewDense(6, cfg.Rows)
			for i := range v.Data {
				v.Data[i] = cfg.Vsupply * r.Float64()
			}
			vc, gc := m.NewVContext(v), m.NewGContext(g)
			got := linalg.NewDense(v.Rows, cols)
			m.PredictVGInto(got, vc, gc)

			hid := linalg.NewDense(v.Rows, hidden)
			for s := 0; s < v.Rows; s++ {
				for j := range hid.Row(s) {
					if h := vc.base.At(s, j) + gc.bias[j]; h > 0 {
						hid.Set(s, j, h)
					}
				}
			}
			want := linalg.NewDense(v.Rows, cols)
			for s := 0; s < v.Rows; s++ {
				row := want.Row(s)
				for k, hv := range hid.Row(s) {
					if hv == 0 {
						continue
					}
					for j, wv := range m.L2.Weight.W.Row(k) {
						row[j] += hv * wv
					}
				}
				span := m.FRMax - m.FRMin
				for j := range row {
					row[j] = m.FRMin + (row[j]+m.L2.Bias.W.Data[j])*span
				}
			}
			var zero, neg int
			for s := 0; s < v.Rows; s++ {
				for j := 0; j < hidden; j++ {
					switch h := vc.base.At(s, j) + gc.bias[j]; {
					case h == 0:
						zero++
					case h < 0:
						neg++
					}
				}
			}
			if zero == 0 || neg == 0 {
				t.Fatalf("cols=%d hidden=%d: %d zero and %d negative pre-activations, want some of each", cols, hidden, zero, neg)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("cols=%d hidden=%d: fR[%d] = %v, two-pass %v", cols, hidden, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// LoadModel must reject a decodable model that would panic or predict
// NaN ratios, naming what is wrong.
func TestLoadModelRejectsInconsistentModels(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		name, want string
		mutate     func(m *Model)
	}{
		{"hidden disagrees with layers", "L1", func(m *Model) { m.Hidden = 8 }},
		{"no L2 bias", "L2 has no bias", func(m *Model) { m.L2.Bias, m.L2.UseBias = nil, false }},
		{"NaN weight", "not finite", func(m *Model) { m.L1.Weight.W.Data[3] = math.NaN() }},
		{"empty label window", "label window", func(m *Model) { m.FRMax = m.FRMin }},
	} {
		m, err := NewModel(cfg, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(&buf); err == nil {
			t.Errorf("%s: LoadModel accepted the model", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 30, 31)
	m := trainSmallModel(t, ds, 24, 20)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	copy(g.Data, ds.G.Row(0))
	a := m.Predict(ds.V.Row(0), g)
	b := loaded.Predict(ds.V.Row(0), g)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("loaded model predicts differently at %d: %v vs %v", j, a[j], b[j])
		}
	}
}

func TestNonIdealCurrentsUsesRatio(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 30, 37)
	m := trainSmallModel(t, ds, 24, 20)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	copy(g.Data, ds.G.Row(0))
	v := ds.V.Row(0)
	fr := m.Predict(v, g)
	curr := m.NonIdealCurrents(v, g)
	ideal := xbar.IdealCurrents(v, g)
	for j := range curr {
		r := fr[j]
		if r <= 0 {
			r = 1
		}
		if math.Abs(curr[j]-ideal[j]/r) > 1e-15 {
			t.Fatalf("current[%d] inconsistent with ratio", j)
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewModel(cfg, 0, 1); err == nil {
		t.Error("expected error for zero hidden units")
	}
	cfg.Rows = 0
	if _, err := NewModel(cfg, 10, 1); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestTrainShapeMismatch(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 10, 41)
	other := cfg
	other.Rows = 4
	m, err := NewModel(other, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ds, TrainOptions{Epochs: 1}); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestIdealAdapter(t *testing.T) {
	cfg := testConfig()
	r := linalg.NewRNG(43)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	v := make([]float64, cfg.Rows)
	for i := range v {
		v[i] = cfg.Vsupply * r.Float64()
	}
	got := IdealAdapter{}.NonIdealCurrents(v, g)
	want := xbar.IdealCurrents(v, g)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("ideal adapter mismatch at %d", j)
		}
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	ds := testDataset(t, cfg, 15, 71)
	path := t.TempDir() + "/ds.gob"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ds.Len() || loaded.Cfg.Rows != cfg.Rows {
		t.Fatalf("loaded dataset metadata wrong: %d samples, %d rows", loaded.Len(), loaded.Cfg.Rows)
	}
	for i := range ds.FR.Data {
		if loaded.FR.Data[i] != ds.FR.Data[i] {
			t.Fatal("loaded labels differ")
		}
	}
}

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, err := LoadDatasetFile("/nonexistent/ds.gob"); err == nil {
		t.Error("expected error for missing file")
	}
}

// GenerateFrom with the built-in circuit solver as the "measurer" must
// agree exactly with Generate (same seeds produce the same workloads).
func TestGenerateFromMatchesGenerate(t *testing.T) {
	cfg := testConfig()
	opt := GenOptions{Samples: 8, StreamBits: 4, SliceBits: 4, Seed: 81}
	want, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := xbar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	measurer := MeasurerFunc(func(v []float64, g *linalg.Dense) ([]float64, error) {
		if err := xb.Program(g); err != nil {
			return nil, err
		}
		sol, err := xb.Solve(v)
		if err != nil {
			return nil, err
		}
		return sol.Currents, nil
	})
	got, err := GenerateFrom(cfg, measurer, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.FR.Data {
		if got.FR.Data[i] != want.FR.Data[i] {
			t.Fatalf("label %d differs: %v vs %v", i, got.FR.Data[i], want.FR.Data[i])
		}
	}
}

// Training on a "measured" noisy array absorbs its variation: the
// measured-array model predicts the noisy array better than a model of
// the clean array does.
func TestGENIExLearnsMeasuredVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("measured-array training needs thousands of circuit solves")
	}
	cfg := testConfig()
	cfg.Vsupply = 0.5
	variation := nonideal.Stack{&nonideal.D2DVariation{Sigma: 0.6}}
	xb, err := xbar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisy := MeasurerFunc(func(v []float64, g *linalg.Dense) ([]float64, error) {
		pert := g.Clone()
		if _, err := variation.Apply(pert, xbar.EnvFromConfig(cfg), 5, 0); err != nil {
			return nil, err
		}
		if err := xb.Program(pert); err != nil {
			return nil, err
		}
		sol, err := xb.Solve(v)
		if err != nil {
			return nil, err
		}
		return sol.Currents, nil
	})
	// The measured array's transfer function includes 64 fixed
	// per-cell gain factors, a notably harder function than the clean
	// crossbar's: give the fit a larger budget, and keep the workloads
	// dense — sparse vectors on small arrays leave columns barely lit,
	// where the ratio labels become heavy-tailed and the comparison
	// degenerates into fitting outliers.
	// Learning 64 per-cell gains through 8-dimensional observations is
	// data-hungry: below ~1500 samples the fit memorizes instead of
	// generalizing (verified empirically: val RMSE 1.30 at 600 samples
	// vs 0.22 at 2000).
	opt := GenOptions{Samples: 2000, Sparsities: []float64{0, 0.25, 0.5}, Seed: 83}
	measured, err := GenerateFrom(cfg, noisy, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	trainM, valM := measured.Split(0.25, 85)
	trainC, _ := clean.Split(0.25, 85)

	trainBig := func(ds *Dataset) *Model {
		m, err := NewModel(cfg, 128, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Train(ds, TrainOptions{Epochs: 300, BatchSize: 32, LR: 2e-3, Seed: 13}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	mMeasured := trainBig(trainM)
	mClean := trainBig(trainC)

	// Evaluate both against the measured (noisy) validation labels.
	errMeasured := Evaluate(mMeasured, valM).RMSENF
	errClean := Evaluate(mClean, valM).RMSENF
	t.Logf("NF RMSE on measured array: trained-on-measured=%.4f trained-on-clean=%.4f",
		errMeasured, errClean)
	if errMeasured >= errClean {
		t.Errorf("measured-array training did not help: %v vs %v", errMeasured, errClean)
	}
}

func TestGenerateFromErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := GenerateFrom(cfg, nil, GenOptions{Samples: 2}); err == nil {
		t.Error("expected nil-measurer error")
	}
	bad := MeasurerFunc(func([]float64, *linalg.Dense) ([]float64, error) {
		return make([]float64, 1), nil // wrong width
	})
	if _, err := GenerateFrom(cfg, bad, GenOptions{Samples: 2}); err == nil {
		t.Error("expected width error")
	}
}
