package nn

import (
	"math"

	"geniex/internal/linalg"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and clears nothing; call ZeroGrad
	// separately so gradient accumulation across micro-batches works.
	Step()
	// SetLR changes the learning rate (for schedules).
	SetLR(lr float64)
}

// SGD is stochastic gradient descent with classical momentum and
// decoupled weight decay.
type SGD struct {
	params   []*Param
	lr       float64
	momentum float64
	decay    float64
	velocity []*linalg.Dense
}

// NewSGD creates an SGD optimizer over params.
func NewSGD(params []*Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, decay: weightDecay}
	s.velocity = make([]*linalg.Dense, len(params))
	for i, p := range params {
		s.velocity[i] = linalg.NewDense(p.W.Rows, p.W.Cols)
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for i, p := range s.params {
		v := s.velocity[i]
		for j := range p.W.Data {
			g := p.Grad.Data[j] + s.decay*p.W.Data[j]
			v.Data[j] = s.momentum*v.Data[j] + g
			p.W.Data[j] -= s.lr * v.Data[j]
		}
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// adamParallelMin is the parameter size from which Adam.Step splits
// one parameter's update across linalg.ParallelFor. The update costs
// about 8 ns per element, so below this size the hand-off to a pool
// worker costs about what the split saves: BenchmarkAdamStep on a
// 2-vCPU VM (go1.24) broke even at 8–16K elements and split 64K
// elements 1.35× faster.
const adamParallelMin = 1 << 14

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. Its
// update is element-wise, so Step splits large parameters across
// workers with results bit-identical at any GOMAXPROCS.
type Adam struct {
	params []*Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   []*linalg.Dense
	c1, c2 float64 // this step's bias corrections

	// update[i] applies this step to elements [lo, hi) of params[i].
	// The bodies are built once, so Step allocates nothing.
	update []func(lo, hi int)
}

// NewAdam creates an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*linalg.Dense, len(params))
	a.v = make([]*linalg.Dense, len(params))
	a.update = make([]func(lo, hi int), len(params))
	for i, p := range params {
		a.m[i] = linalg.NewDense(p.W.Rows, p.W.Cols)
		a.v[i] = linalg.NewDense(p.W.Rows, p.W.Cols)
		a.update[i] = func(lo, hi int) { a.stepRange(i, lo, hi) }
	}
	return a
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.t++
	a.c1 = 1 - math.Pow(a.beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		if n := len(p.W.Data); n >= adamParallelMin {
			linalg.ParallelFor(n, a.update[i])
		} else {
			a.update[i](0, n)
		}
	}
}

// stepRange applies the current step to elements [lo, hi) of
// parameter i.
func (a *Adam) stepRange(i, lo, hi int) {
	w, g := a.params[i].W.Data[lo:hi], a.params[i].Grad.Data[lo:hi]
	m, v := a.m[i].Data[lo:hi], a.v[i].Data[lo:hi]
	for j := range w {
		gj := g[j]
		m[j] = a.beta1*m[j] + (1-a.beta1)*gj
		v[j] = a.beta2*v[j] + (1-a.beta2)*gj*gj
		mh := m[j] / a.c1
		vh := v[j] / a.c2
		w[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }
