package funcsim

import (
	"math"
	"testing"
	"time"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/obs"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// liveInput returns a batch×in input whose row 0 is all zero and whose
// other rows mix signs. exactConfig's activations are 8-bit with 4
// fractional bits in 2-bit streams, so |x| < 4 leaves the top digit of
// every entry zero: every batch row also has an all-zero digit row.
func liveInput(seed uint64, batch, in int) *linalg.Dense {
	r := linalg.NewRNG(seed)
	x := linalg.NewDense(batch, in)
	for i := in; i < len(x.Data); i++ {
		x.Data[i] = 4*r.Float64() - 2
	}
	return x
}

// mvmOnce lowers w on a fresh engine and runs one MVM of x.
func mvmOnce(t *testing.T, cfg Config, model Model, w, x *linalg.Dense) *linalg.Dense {
	t.Helper()
	eng, err := NewEngine(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	y, err := mat.MVM(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// Each tier computes every tile column on its own, so a tile that
// evaluates only the columns its layer reads changes no bit: MVM(W)
// must equal the first out columns of MVM([W | 0]), whose zero block
// pads out to whole tiles (every column live). That holds for every
// tier, the calibrated wrapper and, at one worker with a
// fixed seed, the noisy one, whose tiles draw for every column, live
// or not.
func TestLiveColumnsBitIdentical(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar.BatchWorkers = 1
	sur, err := core.NewModel(cfg.Xbar, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	type tier struct {
		name    string
		model   func() Model // fresh per engine: Noisy numbers its tiles
		workers []int
	}
	var tiers []tier
	for _, name := range ModelNames() {
		spec, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.New(ModelParams{Xbar: cfg.Xbar, Surrogate: sur})
		if err != nil {
			t.Fatal(err)
		}
		tiers = append(tiers, tier{name, func() Model { return m }, []int{1, 0}})
	}
	fullScale := float64(cfg.Xbar.Rows) * cfg.Xbar.Vsupply * cfg.Xbar.Gon()
	tiers = append(tiers,
		tier{"analytical+cal", func() Model {
			return Calibrated{Inner: Analytical{Cfg: cfg.Xbar}, Xbar: cfg.Xbar, Seed: 3}
		}, []int{1, 0}},
		tier{"geniex+noise", func() Model {
			return &Noisy{Inner: GENIEx{Model: sur}, Sigma: 0.02, FullScale: fullScale, Seed: 9}
		}, []int{1}},
	)

	cols := cfg.Xbar.Cols
	x := liveInput(92, 3, 10) // two tile rows
	for _, out := range []int{1, cols - 1, cols + 1, 2*cols - 3} {
		w, _ := testWorkload(uint64(93+out), x.Cols, out, 1)
		padded := linalg.NewDense(w.Rows, (out+cols-1)/cols*cols)
		for i := 0; i < w.Rows; i++ {
			copy(padded.Row(i), w.Row(i))
		}
		for _, tr := range tiers {
			for _, workers := range tr.workers {
				c := cfg
				c.Workers = workers
				got := mvmOnce(t, c, tr.model(), w, x)
				full := mvmOnce(t, c, tr.model(), padded, x)
				for b := 0; b < x.Rows; b++ {
					for j, v := range got.Row(b) {
						if f := full.At(b, j); math.Float64bits(v) != math.Float64bits(f) {
							t.Fatalf("%s workers=%d out=%d: y[%d][%d] = %v, padded to whole tiles %v",
								tr.name, workers, out, b, j, v, f)
						}
					}
				}
			}
		}
	}
}

// A circuit tile solves only the live rows of its input block, so a
// forward pass moves the process-wide solve counter by exactly the
// crossbar ops it counts, and the per-model solver health by the
// same number of batch items.
func TestCircuitSolvesOnlyLiveRows(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar.BatchWorkers = 1
	health := &SolverHealth{}
	eng, err := NewEngine(cfg, Circuit{Cfg: cfg.Xbar, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.NewRNG(94)
	sim, err := Lower(nn.NewSequential(
		nn.NewLinear(10, 9, true, r),
		nn.NewReLU(),
		nn.NewLinear(9, 3, false, r),
	), eng)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Snapshot()
	if _, err := sim.Forward(liveInput(95, 3, 10)); err != nil {
		t.Fatal(err)
	}
	after := obs.Snapshot()
	ops := after.Counters["funcsim.mvm.crossbar_ops"] - before.Counters["funcsim.mvm.crossbar_ops"]
	solves := after.Counters["xbar.solver.solves"] - before.Counters["xbar.solver.solves"]
	if ops == 0 || solves != ops {
		t.Errorf("forward pass: %d circuit solves for %d crossbar ops, want equal and non-zero", solves, ops)
	}
	if items := health.Counts().Items; items != ops {
		t.Errorf("solver health counts %d batch items for %d crossbar ops", items, ops)
	}
}

// A probe-sampled tile offers the first live row of its block and the
// model's currents over the columns the layer reads. Batch row 0 is
// all zero and every entry of row 1 has a zero low digit, so the first
// live row is row 1's second digit.
func TestProbeOffersFirstLiveRow(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Workers = 1
	cfg.ProbeRate = 1
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w, _ := testWorkload(96, 8, 3, 1) // one tile, 3 of 8 columns read
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(2, 8)
	for i := range x.Row(1) {
		x.Set(1, i, float64(4*(i+1))/16) // codes 4, 8, …: digit 0 is zero
	}

	type offered struct{ v, model []float64 }
	got := make(chan offered, 4)
	p := eng.Probe()
	p.setSolveHook(func(j *probeJob) {
		got <- offered{append([]float64(nil), j.v...), append([]float64(nil), j.model...)}
	})
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	if !p.Drain(10 * time.Second) {
		t.Fatal("probe did not drain")
	}
	if len(got) != 1 {
		t.Fatalf("%d samples offered, want 1", len(got))
	}
	o := <-got

	amax := float64(int64(1)<<cfg.StreamBits) - 1
	v := linalg.NewDense(1, 8)
	for i := range v.Data {
		d := quant.Digit(uint64(cfg.Act.QuantizeSymmetric(x.At(1, i))), cfg.StreamBits, 1)
		v.Data[i] = float64(d) / amax * cfg.Xbar.Vsupply
	}
	ideal := linalg.MatMul(v, mat.conds[0][0].pos[0])
	if len(o.v) != len(v.Data) || len(o.model) != 3 {
		t.Fatalf("offered %d voltages and %d currents, want 8 and 3", len(o.v), len(o.model))
	}
	for i, vi := range v.Data {
		if o.v[i] != vi {
			t.Fatalf("offered v[%d] = %v, want row 1 digit 1's %v", i, o.v[i], vi)
		}
	}
	for j, c := range o.model {
		if c != ideal.At(0, j) {
			t.Fatalf("offered current %d = %v, want %v", j, c, ideal.At(0, j))
		}
	}
}

// Through funcsim a circuit tile's batch is the block's live rows, so
// FaultPlan.Items index 0 names the first live row. Batch row 0 is all
// zero here: failing item 0 must damage row 1's output (degraded mode
// zeroes the item's currents) and leave row 0's alone.
func TestFaultPlanItemsIndexLiveRows(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Workers = 1
	cfg.Xbar.BatchWorkers = 1
	w, _ := testWorkload(97, 8, 3, 1)
	x := liveInput(98, 2, 8)
	clean := mvmOnce(t, cfg, Circuit{Cfg: cfg.Xbar}, w, x)
	health := &SolverHealth{}
	faulted := cfg.Xbar.WithFaults(&xbar.FaultPlan{FailAttempts: 3, Items: []int{0}})
	got := mvmOnce(t, cfg, Circuit{Cfg: faulted, Degraded: true, Health: health}, w, x)
	if c := health.Counts(); c.Failed == 0 || c.Failed != c.Batches {
		t.Errorf("health %+v, want one failed item per tile call", c)
	}
	for j := 0; j < w.Cols; j++ {
		if got.At(0, j) != clean.At(0, j) {
			t.Errorf("all-zero row 0, output %d: %v, clean %v", j, got.At(0, j), clean.At(0, j))
		}
	}
	changed := false
	for j := 0; j < w.Cols; j++ {
		changed = changed || got.At(1, j) != clean.At(1, j)
	}
	if !changed {
		t.Error("failing item 0 left row 1's output unchanged: it did not hit the first live row")
	}
}
