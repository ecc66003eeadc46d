package core

import (
	"fmt"

	"geniex/internal/linalg"
	"geniex/internal/nn"
)

// trainStep is the one GENIEx training step, shared by Model.Train and
// Tuner.Step: forward through L1, ReLU and L2, MSE against the labels,
// backward into both layers' gradients, and one Adam update. It applies
// nn.Linear's, nn.ReLU's, nn.MSE's and nn.Adam's arithmetic in their
// order, so the weights it trains are bit-identical to the
// Sequential{L1, ReLU, L2} loop it replaces, but it skips what that
// loop computes and nothing reads: L1's input gradient grad·W1ᵀ, and a
// fresh matrix per product.
//
// It owns every buffer a step touches — the batch gather, hidden
// activations, predictions, both deltas, both layers' gradients and
// Adam's moments — and reuses them, so after the first step (and the
// first partial batch) a step allocates nothing; its ParallelFor bodies
// are built once for the same reason. The model itself keeps only its
// weights, biases and label window.
type trainStep struct {
	m   *Model
	opt *nn.Adam

	x      *linalg.Dense // the batch's inputs: bx, or Tuner.Step's rows
	bx, by *linalg.Dense // Train's batch gather

	act   *linalg.Dense // batch×Hidden: ReLU(x·W1 + b1)
	pred  *linalg.Dense // batch×Cols: act·W2 + b2
	dpred *linalg.Dense // batch×Cols: dL/dpred
	dact  *linalg.Dense // batch×Hidden: dL/d(x·W1 + b1)

	// Gradients, the Grad of the Params Adam steps (which share W
	// with the model's layers).
	gw1, gb1, gw2, gb2 *linalg.Dense

	// Row-range bodies for ParallelFor, one per product.
	fwd1, fwd2, backW2, backAct, backW1 func(lo, hi int)
}

// newTrainStep prepares a training step for m with a fresh Adam
// optimizer at learning rate lr.
func newTrainStep(m *Model, lr float64) *trainStep {
	s := &trainStep{m: m}
	w1, w2 := m.L1.Weight.W, m.L2.Weight.W
	s.gw1 = linalg.NewDense(w1.Rows, w1.Cols)
	s.gb1 = linalg.NewDense(1, m.Hidden)
	s.gw2 = linalg.NewDense(w2.Rows, w2.Cols)
	s.gb2 = linalg.NewDense(1, m.Cfg.Cols)
	s.opt = nn.NewAdam([]*nn.Param{
		{Name: m.L1.Weight.Name, W: w1, Grad: s.gw1},
		{Name: m.L1.Bias.Name, W: m.L1.Bias.W, Grad: s.gb1},
		{Name: m.L2.Weight.Name, W: w2, Grad: s.gw2},
		{Name: m.L2.Bias.Name, W: m.L2.Bias.W, Grad: s.gb2},
	}, lr)
	s.fwd1 = func(lo, hi int) { linalg.MatMulRows(s.act, s.x, w1, lo, hi) }
	s.fwd2 = func(lo, hi int) { linalg.MatMulRows(s.pred, s.act, w2, lo, hi) }
	s.backW2 = func(lo, hi int) { linalg.MatMulATBRows(s.gw2, s.act, s.dpred, lo, hi) }
	s.backAct = func(lo, hi int) {
		// ReLU's backward pass keeps the delta where its input was
		// positive, which is where its output is.
		linalg.MatMulABTRows(s.dact, s.dpred, w2, lo, hi)
		a, d := s.act.Data[lo*m.Hidden:hi*m.Hidden], s.dact.Data[lo*m.Hidden:hi*m.Hidden]
		for i, av := range a {
			if !(av > 0) {
				d[i] = 0
			}
		}
	}
	s.backW1 = func(lo, hi int) { linalg.MatMulATBRows(s.gw1, s.x, s.dact, lo, hi) }
	return s
}

// gather copies the rows idx of the normalized inputs and labels into
// the step's batch buffers.
func (s *trainStep) gather(in, labels *linalg.Dense, idx []int) {
	s.bx = linalg.GrowDense(s.bx, len(idx), in.Cols)
	s.by = linalg.GrowDense(s.by, len(idx), labels.Cols)
	for i, r := range idx {
		copy(s.bx.Row(i), in.Row(r))
		copy(s.by.Row(i), labels.Row(r))
	}
}

// run takes one Adam step on the batch x (batch×InputDim normalized
// inputs) against y (batch×Cols normalized labels) and returns the
// batch's pre-update MSE loss.
func (s *trainStep) run(x, y *linalg.Dense) float64 {
	m := s.m
	n := x.Rows
	if x.Cols != m.InputDim() || y.Rows != n || y.Cols != m.Cfg.Cols {
		panic(fmt.Sprintf("core: training step on %dx%d inputs and %dx%d labels, want n×%d and n×%d",
			x.Rows, x.Cols, y.Rows, y.Cols, m.InputDim(), m.Cfg.Cols))
	}
	s.x = x
	s.act = linalg.GrowDense(s.act, n, m.Hidden)
	s.pred = linalg.GrowDense(s.pred, n, m.Cfg.Cols)
	s.dpred = linalg.GrowDense(s.dpred, n, m.Cfg.Cols)
	s.dact = linalg.GrowDense(s.dact, n, m.Hidden)

	// Forward: act = ReLU(x·W1 + b1), pred = act·W2 + b2.
	linalg.ParallelFor(n, s.fwd1)
	addRows(s.act, m.L1.Bias.W.Data)
	for i, v := range s.act.Data {
		if !(v > 0) {
			s.act.Data[i] = 0
		}
	}
	linalg.ParallelFor(n, s.fwd2)
	addRows(s.pred, m.L2.Bias.W.Data)

	// MSE over every element, and its gradient.
	var loss float64
	cnt := float64(len(s.pred.Data))
	for i, p := range s.pred.Data {
		d := p - y.Data[i]
		loss += d * d / cnt
		s.dpred.Data[i] = 2 * d / cnt
	}

	// Backward: L2's gradients, the delta through ReLU, L1's gradients.
	linalg.ParallelFor(m.Hidden, s.backW2)
	sumRows(s.gb2.Data, s.dpred)
	linalg.ParallelFor(n, s.backAct)
	linalg.ParallelFor(s.gw1.Rows, s.backW1)
	sumRows(s.gb1.Data, s.dact)

	s.opt.Step()
	return loss
}

// addRows adds b to every row of d, as nn.Linear adds its bias.
func addRows(d *linalg.Dense, b []float64) {
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
}

// sumRows overwrites dst with the column sums of d, rows in order from
// zero, as nn.Linear accumulates its bias gradient into a cleared one.
func sumRows(dst []float64, d *linalg.Dense) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < d.Rows; i++ {
		for j, v := range d.Row(i) {
			dst[j] += v
		}
	}
}
