package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/xbar"
)

// Model is a trained GENIEx crossbar surrogate: a two-layer MLP of
// shape (Rows + Rows·Cols) × Hidden × Cols predicting the normalized
// distortion ratio fR(V, G), exactly the topology of Section 4 of the
// paper (the paper uses Hidden = 500).
//
// Inputs are normalized to [0, 1]: voltages by Vsupply, conductances
// by their position in the [Goff, Gon] window. Labels are min-max
// normalized with statistics frozen at training time.
type Model struct {
	Cfg    xbar.Config
	Hidden int

	// The MLP is stored as its two layers rather than a Sequential so
	// the G-contribution of the first layer can be cached (see
	// GContext).
	L1 *nn.Linear // (Rows+Rows·Cols) × Hidden
	L2 *nn.Linear // Hidden × Cols

	FRMin, FRMax float64
}

// NewModel creates an untrained GENIEx model for a crossbar design
// point.
func NewModel(cfg xbar.Config, hidden int, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hidden <= 0 {
		return nil, fmt.Errorf("core: model with %d hidden units", hidden)
	}
	rng := linalg.NewRNG(seed)
	in := cfg.Rows + cfg.Rows*cfg.Cols
	return &Model{
		Cfg:    cfg,
		Hidden: hidden,
		L1:     newLayer(in, hidden, rng),
		L2:     newLayer(hidden, cfg.Cols, rng),
		FRMin:  0,
		FRMax:  1,
	}, nil
}

// newLayer is nn.NewLinear with a bias and without gradient storage: a
// Model holds only its weights and biases, and training keeps the
// gradients in its trainStep.
func newLayer(in, out int, rng *linalg.RNG) *nn.Linear {
	l := nn.NewLinear(in, out, true, rng)
	l.Weight.Grad, l.Bias.Grad = nil, nil
	return l
}

// normalizeV scales voltages into [0, 1].
func (m *Model) normalizeV(dst, v []float64) {
	for i, x := range v {
		dst[i] = x / m.Cfg.Vsupply
	}
}

// normalizeG maps conductances onto their window position in [0, 1].
func (m *Model) normalizeG(dst, g []float64) {
	lo, hi := m.Cfg.Goff(), m.Cfg.Gon()
	inv := 1 / (hi - lo)
	for i, x := range g {
		dst[i] = (x - lo) * inv
	}
}

// inputs assembles the normalized [V | G] design matrix of a dataset.
func (m *Model) inputs(ds *Dataset) *linalg.Dense {
	n := ds.Len()
	in := linalg.NewDense(n, m.Cfg.Rows+m.Cfg.Rows*m.Cfg.Cols)
	for s := 0; s < n; s++ {
		row := in.Row(s)
		m.normalizeV(row[:m.Cfg.Rows], ds.V.Row(s))
		m.normalizeG(row[m.Cfg.Rows:], ds.G.Row(s))
	}
	return in
}

// TrainOptions controls GENIEx training.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      uint64
	// Verbose, when non-nil, receives one line per epoch.
	Verbose io.Writer
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 120
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	return o
}

// Train fits the model to a dataset with Adam on the MSE of the
// normalized ratio. It freezes the label normalization statistics from
// the training set.
func (m *Model) Train(ds *Dataset, opt TrainOptions) error {
	if ds.Cfg.Rows != m.Cfg.Rows || ds.Cfg.Cols != m.Cfg.Cols {
		return fmt.Errorf("core: dataset is %dx%d, model is %dx%d",
			ds.Cfg.Rows, ds.Cfg.Cols, m.Cfg.Rows, m.Cfg.Cols)
	}
	opt = opt.withDefaults()

	// Label normalization.
	m.FRMin, m.FRMax = math.Inf(1), math.Inf(-1)
	for _, f := range ds.FR.Data {
		m.FRMin = math.Min(m.FRMin, f)
		m.FRMax = math.Max(m.FRMax, f)
	}
	if m.FRMax-m.FRMin < 1e-12 {
		// Degenerate labels (e.g. an essentially ideal crossbar):
		// widen the window so normalization stays finite.
		m.FRMax = m.FRMin + 1e-6
	}

	in := m.inputs(ds)
	labels := linalg.NewDense(ds.Len(), m.Cfg.Cols)
	inv := 1 / (m.FRMax - m.FRMin)
	for i, f := range ds.FR.Data {
		labels.Data[i] = (f - m.FRMin) * inv
	}

	step := newTrainStep(m, opt.LR)
	rng := linalg.NewRNG(opt.Seed)
	n := ds.Len()

	for epoch := 0; epoch < opt.Epochs; epoch++ {
		perm := rng.Perm(n)
		var epochLoss float64
		batches := 0
		for lo := 0; lo < n; lo += opt.BatchSize {
			hi := lo + opt.BatchSize
			if hi > n {
				hi = n
			}
			step.gather(in, labels, perm[lo:hi])
			epochLoss += step.run(step.bx, step.by)
			batches++
		}
		if opt.Verbose != nil {
			fmt.Fprintf(opt.Verbose, "epoch %3d/%d  mse=%.6f\n", epoch+1, opt.Epochs, epochLoss/float64(batches))
		}
	}
	return nil
}

// Predict returns the distortion ratio vector fR for one (V, G)
// combination in physical units. It follows the repo-wide Into idiom:
// the allocating method delegates to PredictInto with a fresh result
// buffer.
func (m *Model) Predict(v []float64, g *linalg.Dense) []float64 {
	out := make([]float64, m.Cfg.Cols)
	m.PredictInto(out, v, g)
	return out
}

// PredictInto evaluates fR for one (V, G) combination into dst (length
// Cols, physical units). The per-call contexts still allocate; hot
// loops evaluating many voltage batches against fixed conductances
// should build the contexts once and call PredictVGInto.
func (m *Model) PredictInto(dst, v []float64, g *linalg.Dense) {
	if len(dst) != m.Cfg.Cols {
		panic(fmt.Sprintf("core: predict into %d outputs, want %d", len(dst), m.Cfg.Cols))
	}
	ctx := m.NewGContext(g)
	vb := linalg.NewDense(1, len(v))
	copy(vb.Row(0), v)
	m.PredictWithContextInto(linalg.NewDenseFrom(1, m.Cfg.Cols, dst), vb, ctx)
}

// GContext caches the conductance-dependent part of the first layer.
// The hidden pre-activation is h = Vn·W1v + Gn·W1g + b1; for a fixed
// crossbar tile the term Gn·W1g + b1 is constant, so the functional
// simulator computes it once per (tile, slice). A batch of input
// streams then costs one Rows×Hidden matmul for its VContext, shared
// by every tile that sees the batch, plus PredictVGInto's one add per
// hidden unit and output-layer gather. This caching is what makes
// end-to-end DNN evaluation through GENIEx tractable on a CPU.
type GContext struct {
	bias []float64 // Hidden values: Gn·W1g + b1
}

// NewGContext precomputes the hidden-layer contribution of a
// conductance matrix (Rows×Cols, physical units).
func (m *Model) NewGContext(g *linalg.Dense) *GContext {
	if g.Rows != m.Cfg.Rows || g.Cols != m.Cfg.Cols {
		panic(fmt.Sprintf("core: GContext with %dx%d matrix for %dx%d model",
			g.Rows, g.Cols, m.Cfg.Rows, m.Cfg.Cols))
	}
	gn := make([]float64, len(g.Data))
	m.normalizeG(gn, g.Data)
	bias := make([]float64, m.Hidden)
	copy(bias, m.L1.Bias.W.Data)
	// W1 rows [Rows, Rows+Rows·Cols) hold the G block.
	w := m.L1.Weight.W
	for i, gv := range gn {
		if gv == 0 {
			continue
		}
		row := w.Row(m.Cfg.Rows + i)
		linalg.Axpy(gv, row, bias)
	}
	return &GContext{bias: bias}
}

// VContext caches the voltage-dependent first-layer product Vn·W1v of
// one batch of drive voltages. The hidden pre-activation is
// h = Vn·W1v + Gn·W1g + b1: for a fixed voltage batch the first term
// is constant across every conductance context, so the functional
// simulator computes it once per input block and reuses it across all
// the tile slices (different GContexts) that see the same voltages.
// A filled VContext is read-only and safe to share across goroutines;
// its owner may refill it (VContextInto) once no reader is left, which
// is how the funcsim pipeline keeps steady-state MVMs allocation-free.
// The zero value is an empty context ready for VContextInto.
type VContext struct {
	rows int
	vn   *linalg.Dense // batch×Rows normalized voltages
	base *linalg.Dense // batch×Hidden: Vn·W1v
}

// NewVContext precomputes the hidden-layer contribution of a voltage
// batch (batch×Rows, physical units). It delegates to VContextInto
// with a fresh context.
func (m *Model) NewVContext(v *linalg.Dense) *VContext {
	vc := &VContext{}
	m.VContextInto(vc, v)
	return vc
}

// VContextInto refills vc with the hidden-layer contribution of a
// voltage batch, reusing its buffers; they regrow only when the batch
// or the model's Hidden is larger than any vc has held.
func (m *Model) VContextInto(vc *VContext, v *linalg.Dense) {
	if v.Cols != m.Cfg.Rows {
		panic(fmt.Sprintf("core: VContext with %d inputs for %d rows", v.Cols, m.Cfg.Rows))
	}
	n := v.Rows
	vc.rows = n
	vc.vn = linalg.GrowDense(vc.vn, n, m.Cfg.Rows)
	for s := 0; s < n; s++ {
		m.normalizeV(vc.vn.Row(s), v.Row(s))
	}
	// W1 rows [0, Rows) hold the V block; a stack view of them keeps
	// the refill allocation-free.
	w1v := linalg.Dense{Rows: m.Cfg.Rows, Cols: m.Hidden, Data: m.L1.Weight.W.Data[:m.Cfg.Rows*m.Hidden]}
	vc.base = linalg.GrowDense(vc.base, n, m.Hidden)
	linalg.MatMulSerialInto(vc.base, vc.vn, &w1v)
}

// PredictVGInto evaluates fR for a cached voltage batch against a
// cached conductance context, writing the physical (denormalized)
// ratios into dst: batch×c, the first c ≤ Cols columns, each computed
// on its own, so a narrow dst holds exactly the leading ratios of the
// full prediction. The output layer is one gather pass
// per row: ReLU(base + bias) keeps the hidden units with h > 0 (NaN
// and h ≤ 0 dropped, as ReLU zeroes them and the W2 product skips
// them), and linalg.GatherMulAdd accumulates their W2 rows, so the
// batch×Hidden hidden matrix is never written and dst equals the
// two-pass ReLU-then-matmul form bit for bit. It allocates nothing
// and touches no shared mutable state: concurrent calls on one Model
// are safe as long as each passes its own dst.
func (m *Model) PredictVGInto(dst *linalg.Dense, vc *VContext, gc *GContext) {
	n := vc.rows
	cols := m.Cfg.Cols
	if dst.Rows != n || dst.Cols > cols {
		panic(fmt.Sprintf("core: predict into %dx%d, want %dx(≤%d)", dst.Rows, dst.Cols, n, cols))
	}
	var off [linalg.GatherChunk]int
	var val [linalg.GatherChunk]float64
	w2 := m.L2.Weight.W.Data
	b2 := m.L2.Bias.W.Data[:dst.Cols]
	bias := gc.bias[:m.Hidden]
	span := m.FRMax - m.FRMin
	for s := 0; s < n; s++ {
		brow := vc.base.Row(s)[:m.Hidden]
		row := dst.Row(s)
		for j := range row {
			row[j] = 0
		}
		for j0 := 0; j0 < m.Hidden; j0 += linalg.GatherChunk {
			j1 := min(j0+linalg.GatherChunk, m.Hidden)
			cnt := 0
			for j := j0; j < j1; j++ {
				h := brow[j] + bias[j]
				// Write every entry, keep the active units: h > 0
				// is data-dependent, so a branch would mispredict.
				off[cnt] = j * cols
				val[cnt] = h
				cnt += active(h)
			}
			linalg.GatherMulAdd(row, off[:cnt], val[:cnt], w2)
		}
		for j := range row {
			row[j] = m.FRMin + (row[j]+b2[j])*span
		}
	}
}

// active is 1 for a hidden pre-activation ReLU passes (h > 0) and 0
// otherwise, NaN included.
func active(h float64) int {
	if h > 0 {
		return 1
	}
	return 0
}

// PredictWithContext evaluates fR for a batch of voltage vectors
// (batch × Rows, physical units) against a cached conductance context.
// The returned matrix is batch × Cols of physical (denormalized) fR.
// It allocates its result and delegates to PredictWithContextInto.
func (m *Model) PredictWithContext(v *linalg.Dense, ctx *GContext) *linalg.Dense {
	out := linalg.NewDense(v.Rows, m.Cfg.Cols)
	m.PredictWithContextInto(out, v, ctx)
	return out
}

// PredictWithContextInto evaluates fR for a batch of voltage vectors
// into dst (batch × Cols). It is safe for concurrent use; callers
// evaluating the same voltage batch against many conductance contexts
// should build one VContext and call PredictVGInto instead, which also
// skips the per-call voltage-context allocation.
func (m *Model) PredictWithContextInto(dst, v *linalg.Dense, ctx *GContext) {
	m.PredictVGInto(dst, m.NewVContext(v), ctx)
}

// NonIdealCurrents predicts the non-ideal output currents for one
// (V, G) combination: the ideal MVM divided by the predicted ratio. It
// allocates its result and delegates to NonIdealCurrentsInto.
func (m *Model) NonIdealCurrents(v []float64, g *linalg.Dense) []float64 {
	out := make([]float64, m.Cfg.Cols)
	m.NonIdealCurrentsInto(out, v, g)
	return out
}

// NonIdealCurrentsInto predicts the non-ideal output currents into dst
// (length Cols). The prediction contexts and the ideal-current scratch
// still allocate; this is a reporting-path convenience, not a hot-loop
// primitive — the funcsim pipeline uses the cached-context paths.
func (m *Model) NonIdealCurrentsInto(dst, v []float64, g *linalg.Dense) {
	m.PredictInto(dst, v, g) // dst temporarily holds fR
	xbar.ApplyRatioInto(dst, xbar.IdealCurrents(v, g), dst)
}

// Save serializes the model with gob.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// LoadModel deserializes a model written by Save. It rejects a model
// whose layers disagree with its design point or Hidden, or that holds
// a non-finite weight or label window, naming the first mismatch: such
// a file would otherwise panic in prediction or predict NaN ratios.
func LoadModel(r io.Reader) (*Model, error) {
	var m *Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return m, nil
}

// validate checks a decoded model's shapes and values.
func (m *Model) validate() error {
	if m == nil {
		return fmt.Errorf("no model")
	}
	if err := m.Cfg.Validate(); err != nil {
		return err
	}
	if m.Hidden <= 0 {
		return fmt.Errorf("%d hidden units", m.Hidden)
	}
	in := m.Cfg.Rows + m.Cfg.Rows*m.Cfg.Cols
	if err := checkLayer("L1", m.L1, in, m.Hidden); err != nil {
		return err
	}
	if err := checkLayer("L2", m.L2, m.Hidden, m.Cfg.Cols); err != nil {
		return err
	}
	if !isFinite(m.FRMin) || !isFinite(m.FRMax) || m.FRMin >= m.FRMax {
		return fmt.Errorf("label window [%g, %g] is not a finite, non-empty range", m.FRMin, m.FRMax)
	}
	return nil
}

// checkLayer checks that l is an in×out layer with an out-long bias
// and only finite parameters.
func checkLayer(name string, l *nn.Linear, in, out int) error {
	if l == nil {
		return fmt.Errorf("%s missing", name)
	}
	if l.In != in || l.Out != out {
		return fmt.Errorf("%s is declared %d×%d, want %d×%d", name, l.In, l.Out, in, out)
	}
	if err := checkParam(name+" weight", l.Weight, in, out); err != nil {
		return err
	}
	if !l.UseBias {
		return fmt.Errorf("%s has no bias", name)
	}
	return checkParam(name+" bias", l.Bias, 1, out)
}

func checkParam(name string, p *nn.Param, rows, cols int) error {
	if p == nil || p.W == nil {
		return fmt.Errorf("%s missing", name)
	}
	w := p.W
	if w.Rows != rows || w.Cols != cols || len(w.Data) != rows*cols {
		return fmt.Errorf("%s is %d×%d with %d values, want %d×%d", name, w.Rows, w.Cols, len(w.Data), rows, cols)
	}
	for i, v := range w.Data {
		if !isFinite(v) {
			return fmt.Errorf("%s[%d] = %g is not finite", name, i, v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SaveFile writes the model to the named file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save model %s: %w", path, err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadModelFile reads a model from the named file.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model %s: %w", path, err)
	}
	defer f.Close()
	return LoadModel(f)
}
