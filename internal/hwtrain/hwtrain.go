// Package hwtrain implements hardware-aware retraining: fine-tuning a
// network with the crossbar non-idealities inside the training loop so
// the weights absorb the distortion. This is the mitigation use-case
// the paper motivates (its references CxDNN [9] and technology-aware
// training [10]): an accurate model of the hardware — GENIEx — makes
// retraining effective, an inaccurate one makes it misguided.
//
// Mechanically each MVM layer's forward pass is replaced by the
// functional simulator's non-ideal execution of the *current* weights,
// while the backward pass flows through the ordinary float path — the
// straight-through estimator, standard for non-differentiable forward
// substitutions like quantization and analog execution.
package hwtrain

import (
	"fmt"

	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/nn"
)

// Options controls hardware-aware fine-tuning.
type Options struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      uint64
	// RefreshEvery controls how often (in optimizer steps) the layer
	// weights are re-lowered onto crossbars. Lowering is expensive, so
	// the hardware view is allowed to lag a few steps behind the float
	// weights. Default 8.
	RefreshEvery int
}

func (o Options) withDefaults() Options {
	if o.Epochs == 0 {
		o.Epochs = 3
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	if o.RefreshEvery == 0 {
		o.RefreshEvery = 8
	}
	return o
}

// hwLayer wraps one MVM layer (Conv2D or Linear) with a non-ideal
// forward.
type hwLayer struct {
	inner nn.Layer // *nn.Conv2D or *nn.Linear
	eng   *funcsim.Engine

	mat      *funcsim.Matrix // lowered view of the current weights
	staleFor int
	refresh  int

	// prod is the reusable im2col-product buffer for conv forwards:
	// the MVM result is transient (immediately re-laid-out into the
	// activation tensor), so it is computed with MVMInto instead of
	// allocating a fresh matrix every step. It survives re-lowering —
	// the lowered dimensions do not change.
	prod *linalg.Dense

	// err holds the first lowering or hardware-forward failure. The
	// nn.Layer interface cannot return errors, so Forward records the
	// failure here, falls back to the float result, and the training
	// loop surfaces it via PendingError — one bad tile aborts the run
	// with a real error instead of a panic.
	err error
}

// newHWLayer wraps inner; refresh sets the re-lowering cadence.
func newHWLayer(inner nn.Layer, eng *funcsim.Engine, refresh int) (*hwLayer, error) {
	switch inner.(type) {
	case *nn.Conv2D, *nn.Linear:
	default:
		return nil, fmt.Errorf("hwtrain: cannot wrap layer of type %T", inner)
	}
	return &hwLayer{inner: inner, eng: eng, refresh: refresh, staleFor: refresh}, nil
}

func (h *hwLayer) weights() *linalg.Dense {
	switch l := h.inner.(type) {
	case *nn.Conv2D:
		return l.Weight.W
	case *nn.Linear:
		return l.Weight.W
	}
	panic("hwtrain: unreachable")
}

func (h *hwLayer) ensureLowered() error {
	if h.mat != nil && h.staleFor < h.refresh {
		h.staleFor++
		return nil
	}
	mat, err := h.eng.Lower(h.weights())
	if err != nil {
		return err
	}
	h.mat = mat
	h.staleFor = 1
	return nil
}

// Forward implements nn.Layer: the float forward runs first (in
// training mode, so backward caches populate), then the hardware
// result replaces the activation values. On a lowering or hardware
// failure the float result is returned unchanged and the error is
// recorded for PendingError — the interface has no error channel, and
// the float path keeps the network state consistent until the caller
// aborts.
func (h *hwLayer) Forward(x *linalg.Dense, train bool) *linalg.Dense {
	float := h.inner.Forward(x, train)
	if h.err != nil {
		return float
	}
	if err := h.ensureLowered(); err != nil {
		h.err = fmt.Errorf("hwtrain: lowering: %w", err)
		return float
	}
	var hw *linalg.Dense
	var err error
	switch l := h.inner.(type) {
	case *nn.Conv2D:
		hw, err = h.forwardConv(l, x)
	case *nn.Linear:
		hw, err = h.forwardLinear(l, x)
	}
	if err != nil {
		h.err = fmt.Errorf("hwtrain: hardware forward: %w", err)
		return float
	}
	return hw
}

func (h *hwLayer) forwardConv(c *nn.Conv2D, x *linalg.Dense) (*linalg.Dense, error) {
	g := c.Geom
	cols := nn.Im2Col(x, g)
	if need := cols.Rows * h.mat.Out(); h.prod == nil || cap(h.prod.Data) < need {
		h.prod = linalg.NewDense(cols.Rows, h.mat.Out())
	} else {
		h.prod.Rows, h.prod.Cols = cols.Rows, h.mat.Out()
		h.prod.Data = h.prod.Data[:need]
	}
	prod := h.prod
	if err := h.mat.MVMInto(prod, cols); err != nil {
		return nil, err
	}
	spatial := g.OutH() * g.OutW()
	y := linalg.NewDense(x.Rows, g.OutSize())
	for b := 0; b < x.Rows; b++ {
		dst := y.Row(b)
		for sp := 0; sp < spatial; sp++ {
			src := prod.Row(b*spatial + sp)
			for oc := 0; oc < g.OutC; oc++ {
				v := src[oc]
				if c.UseBias {
					v += c.Bias.W.Data[oc]
				}
				dst[oc*spatial+sp] = v
			}
		}
	}
	return y, nil
}

func (h *hwLayer) forwardLinear(l *nn.Linear, x *linalg.Dense) (*linalg.Dense, error) {
	y, err := h.mat.MVM(x)
	if err != nil {
		return nil, err
	}
	if l.UseBias {
		for b := 0; b < y.Rows; b++ {
			row := y.Row(b)
			for j := range row {
				row[j] += l.Bias.W.Data[j]
			}
		}
	}
	return y, nil
}

// Backward implements nn.Layer: straight-through — gradients flow as
// if the float forward had produced the output.
func (h *hwLayer) Backward(grad *linalg.Dense) *linalg.Dense {
	return h.inner.Backward(grad)
}

// Params implements nn.Layer.
func (h *hwLayer) Params() []*nn.Param { return h.inner.Params() }

// WrapNetwork returns a copy of the network structure in which every
// Conv2D and Linear layer executes its forward pass through the
// functional simulator. The wrapped network SHARES the original's
// parameter tensors: optimizing one updates the other.
//
// Networks where a BatchNorm directly follows a Conv2D or Linear layer
// are rejected: funcsim.Lower folds such BatchNorms into the preceding
// weights at deployment, and the folded conductances distort
// differently from the unfolded weights this wrapper lowers — the
// fine-tuned weights would be adapted to the wrong hardware. Fold or
// remove BatchNorm before hardware-aware fine-tuning.
func WrapNetwork(net *nn.Sequential, eng *funcsim.Engine, refresh int) (*nn.Sequential, error) {
	for i := 0; i+1 < len(net.Layers); i++ {
		if _, ok := net.Layers[i+1].(*nn.BatchNorm); !ok {
			continue
		}
		switch net.Layers[i].(type) {
		case *nn.Conv2D, *nn.Linear:
			return nil, fmt.Errorf("hwtrain: layer %d is followed by BatchNorm, which funcsim folds at deployment; fold it before fine-tuning", i)
		}
	}
	out := &nn.Sequential{}
	for _, layer := range net.Layers {
		switch l := layer.(type) {
		case *nn.Conv2D, *nn.Linear:
			hw, err := newHWLayer(l, eng, refresh)
			if err != nil {
				return nil, err
			}
			out.Layers = append(out.Layers, hw)
		case *nn.Residual:
			body, err := WrapNetwork(l.Body, eng, refresh)
			if err != nil {
				return nil, err
			}
			out.Layers = append(out.Layers, &nn.Residual{Body: body})
		case *nn.Sequential:
			sub, err := WrapNetwork(l, eng, refresh)
			if err != nil {
				return nil, err
			}
			out.Layers = append(out.Layers, sub)
		default:
			out.Layers = append(out.Layers, layer)
		}
	}
	return out, nil
}

// PendingError returns the first hardware failure recorded by any
// wrapped layer in the network (nil when the hardware path is
// healthy). Callers driving a wrapped network directly should check it
// after each forward pass; FineTune does so automatically.
func PendingError(net *nn.Sequential) error {
	for _, layer := range net.Layers {
		switch l := layer.(type) {
		case *hwLayer:
			if l.err != nil {
				return l.err
			}
		case *nn.Residual:
			if err := PendingError(l.Body); err != nil {
				return err
			}
		case *nn.Sequential:
			if err := PendingError(l); err != nil {
				return err
			}
		}
	}
	return nil
}

// FineTune retrains the network with the hardware in the loop. The
// original network's weights are updated in place (the wrapper shares
// them). A lowering or hardware-forward failure aborts the run with an
// error after the offending batch; the weights keep whatever updates
// completed before it.
func FineTune(net *nn.Sequential, eng *funcsim.Engine, set *dataset.Set, opt Options) error {
	opt = opt.withDefaults()
	wrapped, err := WrapNetwork(net, eng, opt.RefreshEvery)
	if err != nil {
		return err
	}
	params := wrapped.Params()
	optim := nn.NewSGD(params, opt.LR, opt.Momentum, 0)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		set.Batches(opt.BatchSize, opt.Seed+uint64(epoch)*7919, func(x *linalg.Dense, y []int) {
			if PendingError(wrapped) != nil {
				return // a tile already failed; stop updating weights
			}
			nn.ZeroGrad(params)
			logits := wrapped.Forward(x, true)
			if PendingError(wrapped) != nil {
				return // this batch's forward failed: discard it
			}
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			wrapped.Backward(grad)
			nn.ClipGradNorm(params, 5)
			optim.Step()
		})
		if err := PendingError(wrapped); err != nil {
			return err
		}
	}
	return nil
}
