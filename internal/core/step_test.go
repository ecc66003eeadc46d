package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/xbar"
)

// refAdam is the serial Adam update the training step must reproduce:
// the per-element arithmetic of nn.Adam, one element at a time.
type refAdam struct {
	params []*nn.Param
	lr     float64
	t      int
	m, v   [][]float64
}

func newRefAdam(params []*nn.Param, lr float64) *refAdam {
	a := &refAdam{params: params, lr: lr}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.W.Data)))
		a.v = append(a.v, make([]float64, len(p.W.Data)))
	}
	return a
}

func (a *refAdam) step() {
	// float64 variables, as nn.Adam's fields are: with untyped
	// constants 1-beta1 would fold to 0.1 exactly, not to the float64
	// difference 1-0.9.
	var beta1, beta2, eps float64 = 0.9, 0.999, 1e-8
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.W.Data {
			g := p.Grad.Data[j]
			m[j] = beta1*m[j] + (1-beta1)*g
			v[j] = beta2*v[j] + (1-beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.W.Data[j] -= a.lr * mh / (math.Sqrt(vh) + eps)
		}
	}
}

// refNet is the reference training loop: m's layers as
// nn.Sequential{L1, ReLU, L2} with gradient storage, nn.MSE and
// refAdam.
type refNet struct {
	net    *nn.Sequential
	params []*nn.Param
	opt    *refAdam
}

func newRefNet(m *Model, lr float64) *refNet {
	for _, l := range []*nn.Linear{m.L1, m.L2} {
		for _, p := range l.Params() {
			p.Grad = linalg.NewDense(p.W.Rows, p.W.Cols)
		}
	}
	net := nn.NewSequential(m.L1, nn.NewReLU(), m.L2)
	return &refNet{net: net, params: net.Params(), opt: newRefAdam(net.Params(), lr)}
}

func (r *refNet) step(x, y *linalg.Dense) float64 {
	nn.ZeroGrad(r.params)
	loss, grad := nn.MSE(r.net.Forward(x, true), y)
	r.net.Backward(grad)
	r.opt.step()
	return loss
}

// sameBits fails the test unless got and want hold the same float64
// bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func sameWeights(t *testing.T, got, want *Model) {
	t.Helper()
	sameBits(t, "W1", got.L1.Weight.W.Data, want.L1.Weight.W.Data)
	sameBits(t, "b1", got.L1.Bias.W.Data, want.L1.Bias.W.Data)
	sameBits(t, "W2", got.L2.Weight.W.Data, want.L2.Weight.W.Data)
	sameBits(t, "b2", got.L2.Bias.W.Data, want.L2.Bias.W.Data)
}

// stepDataset is a synthetic training set whose inputs hold exact
// zeros, as sparse drives and Goff cells give: zero voltages and
// conductances at Goff, which normalize to exactly 0.
func stepDataset(cfg xbar.Config, n int, seed uint64) *Dataset {
	r := linalg.NewRNG(seed)
	ds := &Dataset{
		Cfg: cfg,
		V:   linalg.NewDense(n, cfg.Rows),
		G:   linalg.NewDense(n, cfg.Rows*cfg.Cols),
		FR:  linalg.NewDense(n, cfg.Cols),
	}
	for i := range ds.V.Data {
		if r.Float64() < 0.4 {
			ds.V.Data[i] = cfg.Vsupply * r.Float64()
		}
	}
	for i := range ds.G.Data {
		ds.G.Data[i] = cfg.Goff()
		if r.Float64() < 0.5 {
			ds.G.Data[i] = cfg.ConductanceFromLevel(r.Float64())
		}
	}
	for i := range ds.FR.Data {
		ds.FR.Data[i] = 1 + 0.3*r.Float64()
	}
	return ds
}

// Train's step must give, bit for bit, the weights of the
// Sequential{L1, ReLU, L2} + MSE + serial Adam loop it replaced, over
// several epochs with a partial last batch (70 = 2·32 + 6). At 16×16
// with 64 hidden units W1 is large enough for Adam to split it.
func TestTrainMatchesSequentialReference(t *testing.T) {
	cfg := testConfig()
	cfg.Rows, cfg.Cols = 16, 16
	ds := stepDataset(cfg, 70, 3)
	m, err := NewModel(cfg, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref := m.Clone()
	opt := TrainOptions{Epochs: 5, BatchSize: 32, LR: 2e-3, Seed: 12}
	if err := m.Train(ds, opt); err != nil {
		t.Fatal(err)
	}

	// The reference replays Train's loop: the label window Train froze,
	// the same permutations, one Sequential step per batch.
	in := m.inputs(ds)
	labels := linalg.NewDense(ds.Len(), cfg.Cols)
	inv := 1 / (m.FRMax - m.FRMin)
	for i, f := range ds.FR.Data {
		labels.Data[i] = (f - m.FRMin) * inv
	}
	zeros := 0
	for _, v := range in.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < len(in.Data)/4 {
		t.Fatalf("only %d of %d inputs are exact zeros", zeros, len(in.Data))
	}
	net := newRefNet(ref, opt.LR)
	rng := linalg.NewRNG(opt.Seed)
	n := ds.Len()
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		perm := rng.Perm(n)
		for lo := 0; lo < n; lo += opt.BatchSize {
			hi := min(lo+opt.BatchSize, n)
			bx := linalg.NewDense(hi-lo, in.Cols)
			by := linalg.NewDense(hi-lo, labels.Cols)
			for i, s := range perm[lo:hi] {
				copy(bx.Row(i), in.Row(s))
				copy(by.Row(i), labels.Row(s))
			}
			net.step(bx, by)
		}
	}
	sameWeights(t, m, ref)

	// A trained model keeps only its weights, biases and window.
	for _, p := range []*nn.Param{m.L1.Weight, m.L1.Bias, m.L2.Weight, m.L2.Bias} {
		if p.Grad != nil {
			t.Errorf("trained model holds gradient storage for %s", p.Name)
		}
	}
}

// Tuner.Step is the calibration-replay contract: the same stream of
// batches gives the same losses and weights as the reference loop,
// with Adam's moments carried across the stream.
func TestTunerStepMatchesSequentialReference(t *testing.T) {
	cfg := testConfig()
	ds := stepDataset(cfg, 50, 4)
	m, err := NewModel(cfg, 24, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ds, TrainOptions{Epochs: 1, Seed: 14}); err != nil {
		t.Fatal(err)
	}
	got, want := m.Clone(), m.Clone()
	tuner := got.NewTuner(5e-4)
	net := newRefNet(want, 5e-4)
	r := linalg.NewRNG(15)
	for step := 0; step < 20; step++ {
		bs := 4 + step%5 // the batch shape varies along the stream
		x := linalg.NewDense(bs, got.InputDim())
		y := linalg.NewDense(bs, cfg.Cols)
		for i := 0; i < bs; i++ {
			k := r.Intn(ds.Len())
			g := linalg.NewDenseFrom(cfg.Rows, cfg.Cols, ds.G.Row(k))
			got.AssembleInput(x.Row(i), ds.V.Row(k), g)
			for j := range y.Row(i) {
				y.Row(i)[j] = r.Float64()
			}
		}
		l1 := tuner.Step(x, y)
		l2 := net.step(x, y)
		if math.Float64bits(l1) != math.Float64bits(l2) {
			t.Fatalf("step %d: loss %v, reference %v", step, l1, l2)
		}
	}
	sameWeights(t, got, want)
}

// After its first step at a batch shape, a training step allocates
// nothing, for full and partial batches alike.
func TestTrainStepAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	ds := stepDataset(cfg, 40, 5)
	m, err := NewModel(cfg, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	in := m.inputs(ds)
	labels := linalg.NewDense(ds.Len(), cfg.Cols)
	s := newTrainStep(m, 1e-3)
	full, part := make([]int, 32), make([]int, 8)
	for i := range full {
		full[i] = i
	}
	for i := range part {
		part[i] = 32 + i
	}
	batch := func(idx []int) { s.gather(in, labels, idx); s.run(s.bx, s.by) }
	batch(full)
	for _, idx := range [][]int{full, part} {
		if a := testing.AllocsPerRun(10, func() { batch(idx) }); a != 0 {
			t.Errorf("%d-row step: %v allocations, want 0", len(idx), a)
		}
	}
}

// At GOMAXPROCS 2 every product and the Adam update fan out across the
// worker pool, and a warm step still allocates nothing of its own: 0
// per step as -benchmem counts. The count comes from runtime.MemStats:
// testing.AllocsPerRun pins GOMAXPROCS to 1, where nothing fans out.
// What a window can still count is the runtime's: a hand-off that
// blocks takes a 96 B sudog from a per-P cache, which now and then runs
// dry and allocates one (at most 63 in a 200-step window over 600 runs
// on a 2-vCPU VM).
func TestTrainStepAllocatesNothingInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := testConfig()
	ds := stepDataset(cfg, 40, 5)
	m, err := NewModel(cfg, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	in := m.inputs(ds)
	labels := linalg.NewDense(ds.Len(), cfg.Cols)
	s := newTrainStep(m, 1e-3)
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	s.gather(in, labels, idx)
	// A GC cycle in the window would count the runtime's own
	// allocations after it (refilling the sudog cache it clears, among
	// others), so collect now and hold the collector off.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const steps = 200
	for i := 0; i < steps; i++ {
		s.run(s.bx, s.by)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		s.run(s.bx, s.by)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= steps {
		t.Errorf("%d steps allocated %d times (%d bytes)", steps, n, after.TotalAlloc-before.TotalAlloc)
	}
}
