package core

import (
	"fmt"

	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/xbar"
)

// This file is the online-calibration surface of the GENIEx model:
// cloning (fine-tuning always happens on a copy, never on a model
// that live traffic reads), a persistent Tuner wrapping the Adam
// optimizer, and sample assembly that turns a probe shadow-solve
// (V, G, measured currents) into exactly the normalized training pair
// offline dataset generation produces — same xbar.Ratio labelling,
// same frozen FRMin/FRMax window.

// InputDim is the width of the model's input vector: Rows normalized
// voltages followed by Rows·Cols normalized conductances.
func (m *Model) InputDim() int { return m.Cfg.Rows + m.Cfg.Rows*m.Cfg.Cols }

func cloneParam(p *nn.Param) *nn.Param {
	if p == nil {
		return nil
	}
	return &nn.Param{Name: p.Name, W: p.W.Clone()}
}

func cloneLinear(l *nn.Linear) *nn.Linear {
	return &nn.Linear{
		In: l.In, Out: l.Out, UseBias: l.UseBias,
		Weight: cloneParam(l.Weight),
		Bias:   cloneParam(l.Bias),
	}
}

// Clone deep-copies the model: weights, biases and the frozen label
// window. The copy shares nothing mutable with the original, so a
// calibrator can fine-tune it while the original keeps serving
// traffic.
func (m *Model) Clone() *Model {
	return &Model{
		Cfg:    m.Cfg,
		Hidden: m.Hidden,
		L1:     cloneLinear(m.L1),
		L2:     cloneLinear(m.L2),
		FRMin:  m.FRMin,
		FRMax:  m.FRMax,
	}
}

// Tuner fine-tunes one model incrementally: it holds the model's
// training step with a persistent Adam optimizer, so moments accumulate
// across minibatches the way Train's inner loop accumulates them across
// epochs. Each Step is Train's step on the batch it is handed, and
// allocates nothing once the batch shape has been seen. Not safe for
// concurrent Step calls.
type Tuner struct {
	step *trainStep
}

// NewTuner prepares the model for incremental fine-tuning with Adam
// at the given learning rate. The tuner trains the model in place —
// Clone first if another reader holds it.
func (m *Model) NewTuner(lr float64) *Tuner {
	return &Tuner{step: newTrainStep(m, lr)}
}

// Model returns the model the tuner trains.
func (t *Tuner) Model() *Model { return t.step.m }

// Step runs one minibatch update on rows assembled by AssembleInput /
// AssembleLabel and returns the batch's pre-update MSE loss.
func (t *Tuner) Step(x, y *linalg.Dense) float64 { return t.step.run(x, y) }

// AssembleInput writes one normalized input row [Vn | Gn] for a
// (V, G) pair into dst (length InputDim), the same normalization
// Train applies to offline datasets.
func (m *Model) AssembleInput(dst, v []float64, g *linalg.Dense) {
	if len(dst) != m.InputDim() {
		panic(fmt.Sprintf("core: assemble input into %d values, want %d", len(dst), m.InputDim()))
	}
	if len(v) != m.Cfg.Rows || g.Rows != m.Cfg.Rows || g.Cols != m.Cfg.Cols {
		panic(fmt.Sprintf("core: assemble input from %d voltages and %dx%d conductances for a %dx%d model",
			len(v), g.Rows, g.Cols, m.Cfg.Rows, m.Cfg.Cols))
	}
	m.normalizeV(dst[:m.Cfg.Rows], v)
	m.normalizeG(dst[m.Cfg.Rows:], g.Data)
}

// AssembleLabel writes one normalized label row for a shadow-solved
// sample into dst (length Cols): the distortion ratio
// fR = I_ideal / I_measured per column (xbar.Ratio — identical to
// offline dataset labelling), min-max normalized with the model's
// FRMin/FRMax frozen at initial training. Keeping the window frozen
// makes fine-tuned weights directly comparable (and hot-swappable)
// with the original: both decode predictions through the same affine
// map. Samples outside the original window simply produce labels
// outside [0, 1], which MSE handles fine.
func (m *Model) AssembleLabel(dst, v []float64, g *linalg.Dense, measured []float64) {
	if len(dst) != m.Cfg.Cols || len(measured) != m.Cfg.Cols {
		panic(fmt.Sprintf("core: assemble label into %d values from %d currents, want %d",
			len(dst), len(measured), m.Cfg.Cols))
	}
	fr := xbar.Ratio(xbar.IdealCurrents(v, g), measured, m.Cfg)
	inv := 1 / (m.FRMax - m.FRMin)
	for j, f := range fr {
		dst[j] = (f - m.FRMin) * inv
	}
}
