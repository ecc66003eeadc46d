package funcsim

import (
	"context"
	"fmt"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/obs"
)

// Sim is a trained network lowered onto the crossbar architecture:
// conv2d and linear layers execute as tiled bit-sliced MVMs
// (conv2d-mvm, linear-mvm in the paper's terms); pooling, activation
// and normalization run in the digital domain at full precision, as
// they would on an accelerator's vector units.
type Sim struct {
	eng    *Engine
	layers []simLayer

	// spanNames holds one precomputed trace-span name per layer, built
	// once at lowering time so Forward records spans without formatting
	// (and therefore without allocating) on the hot path.
	spanNames []string
}

type simLayer interface {
	forward(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error)
	describe() string
}

// Lower converts a trained network into its crossbar execution form.
// BatchNorm layers immediately following a Conv2D or Linear layer are
// folded into the preceding layer's weights before quantization, so
// their scale/shift costs nothing at inference — standard practice for
// fixed-point deployment.
func Lower(net *nn.Sequential, eng *Engine) (*Sim, error) {
	s := &Sim{eng: eng}
	if err := s.lowerInto(net); err != nil {
		return nil, err
	}
	s.initSpanNames()
	return s, nil
}

// initSpanNames precomputes per-layer trace-span names (recursing into
// residual bodies) after lowering has settled the layer list.
func (s *Sim) initSpanNames() {
	s.spanNames = make([]string, len(s.layers))
	for i, l := range s.layers {
		var kind string
		switch r := l.(type) {
		case *simConv:
			kind = "conv"
		case *simLinear:
			kind = "linear"
		case *simResidual:
			kind = "residual"
			r.body.initSpanNames()
		case *simAffine:
			kind = "affine"
		default:
			kind = "digital"
		}
		s.spanNames[i] = fmt.Sprintf("funcsim.layer.%02d.%s", i, kind)
	}
}

func (s *Sim) lowerInto(net *nn.Sequential) error {
	for i := 0; i < len(net.Layers); i++ {
		var followBN *nn.BatchNorm
		if i+1 < len(net.Layers) {
			if bn, ok := net.Layers[i+1].(*nn.BatchNorm); ok {
				switch net.Layers[i].(type) {
				case *nn.Conv2D, *nn.Linear:
					followBN = bn
				}
			}
		}
		switch l := net.Layers[i].(type) {
		case *nn.Conv2D:
			ml, err := s.lowerConv(l, followBN)
			if err != nil {
				return err
			}
			s.layers = append(s.layers, ml)
		case *nn.Linear:
			ml, err := s.lowerLinear(l, followBN)
			if err != nil {
				return err
			}
			s.layers = append(s.layers, ml)
		case *nn.Residual:
			body := &Sim{eng: s.eng}
			if err := body.lowerInto(l.Body); err != nil {
				return err
			}
			s.layers = append(s.layers, &simResidual{body: body})
		case *nn.Sequential:
			if err := s.lowerInto(l); err != nil {
				return err
			}
		case *nn.BatchNorm:
			// Reached only when the BatchNorm does not follow an MVM
			// layer (folded ones are skipped below): apply it as a
			// digital per-channel affine transform.
			scale, shift := l.FoldInto()
			s.layers = append(s.layers, &simAffine{c: l.C, spatial: l.Spatial, scale: scale, shift: shift})
		case *nn.ReLU, *nn.Flatten, *nn.MaxPool2D, *nn.GlobalAvgPool2D:
			s.layers = append(s.layers, &simDigital{layer: net.Layers[i]})
		default:
			return fmt.Errorf("funcsim: cannot lower layer of type %T", l)
		}
		if followBN != nil {
			i++ // consume the folded BatchNorm
		}
	}
	return nil
}

// lowerConv folds an optional BatchNorm into the conv weights and
// lowers the patch matrix.
func (s *Sim) lowerConv(c *nn.Conv2D, bn *nn.BatchNorm) (*simConv, error) {
	g := c.Geom
	w := c.Weight.W.Clone() // PatchSize×OutC
	bias := make([]float64, g.OutC)
	if c.UseBias {
		copy(bias, c.Bias.W.Data)
	}
	if bn != nil {
		if bn.C != g.OutC || bn.Spatial != g.OutH()*g.OutW() {
			return nil, fmt.Errorf("funcsim: BatchNorm (%d,%d) does not match conv output (%d,%d)",
				bn.C, bn.Spatial, g.OutC, g.OutH()*g.OutW())
		}
		scale, shift := bn.FoldInto()
		for oc := 0; oc < g.OutC; oc++ {
			for p := 0; p < w.Rows; p++ {
				w.Set(p, oc, w.At(p, oc)*scale[oc])
			}
			bias[oc] = bias[oc]*scale[oc] + shift[oc]
		}
	}
	lm, err := s.eng.Lower(w)
	if err != nil {
		return nil, err
	}
	return &simConv{geom: g, mat: lm, bias: bias}, nil
}

func (s *Sim) lowerLinear(l *nn.Linear, bn *nn.BatchNorm) (*simLinear, error) {
	w := l.Weight.W.Clone()
	bias := make([]float64, l.Out)
	if l.UseBias {
		copy(bias, l.Bias.W.Data)
	}
	if bn != nil {
		if bn.C != l.Out || bn.Spatial != 1 {
			return nil, fmt.Errorf("funcsim: BatchNorm (%d,%d) does not match linear output %d",
				bn.C, bn.Spatial, l.Out)
		}
		scale, shift := bn.FoldInto()
		for o := 0; o < l.Out; o++ {
			for i := 0; i < l.In; i++ {
				w.Set(i, o, w.At(i, o)*scale[o])
			}
			bias[o] = bias[o]*scale[o] + shift[o]
		}
	}
	lm, err := s.eng.Lower(w)
	if err != nil {
		return nil, err
	}
	return &simLinear{mat: lm, bias: bias}, nil
}

// Forward runs a batch through the lowered network. Per-layer and
// whole-pass timings land in the funcsim.forward.* histograms, and each
// layer emits a trace span named at lowering time (residual bodies are
// Sims themselves, so their layers and pass time are recorded too).
// Every call opens a "funcsim.forward" span (allocating a fresh trace
// ID, since no context carries one here) with the per-layer spans as
// its children, so a trace export (obs.WriteTrace) shows one inference
// as one parented tree.
func (s *Sim) Forward(x *linalg.Dense) (*linalg.Dense, error) {
	return s.forwardCtx(nil, x)
}

// ForwardContext is Forward with cooperative cancellation and trace
// propagation: the context is checked between layers and threaded down
// through MVMIntoContext into the circuit batch solver, so a revoked
// deadline stops analog work mid-solve rather than after the pass
// completes, and a TraceContext on ctx (injected by a request edge
// such as serve.Server) parents the whole pass under the caller's
// span. A nil ctx is identical to Forward.
func (s *Sim) ForwardContext(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	return s.forwardCtx(ctx, x)
}

// forwardCtx runs the pass under ctx's trace; residual bodies pass
// their layer's context, so their spans nest under the residual layer.
func (s *Sim) forwardCtx(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "funcsim.forward")
	// End via defer (and after the child below): spans must close on
	// error and cancellation paths too, or their already-recorded
	// children dangle parentless in trace exports.
	defer span.End()
	var err error
	for i, l := range s.layers {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("funcsim: forward cancelled at layer %d: %w", i, cerr)
		}
		layerStart := time.Now()
		lctx := ctx
		var lspan obs.Span
		if i < len(s.spanNames) {
			lctx, lspan = obs.StartSpan(ctx, s.spanNames[i])
		}
		x, err = l.forward(lctx, x)
		lspan.End()
		if err != nil {
			return nil, err
		}
		mLayerLatency.ObserveSince(layerStart)
	}
	mForwardLatency.ObserveSince(start)
	return x, nil
}

// Describe returns a human-readable per-layer execution plan.
func (s *Sim) Describe() []string {
	var out []string
	for _, l := range s.layers {
		out = append(out, l.describe())
	}
	return out
}

// simConv executes conv2d-mvm: im2col (iterative-mvm), tiled bit-
// sliced MVM, digital bias, and layout restore.
type simConv struct {
	geom nn.ConvGeom
	mat  *Matrix
	bias []float64
}

func (c *simConv) forward(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	batch := x.Rows
	cols := nn.Im2Col(x, c.geom) // (b·oh·ow)×patch
	prod, err := c.mat.MVMContext(ctx, cols)
	if err != nil {
		return nil, err
	}
	g := c.geom
	spatial := g.OutH() * g.OutW()
	y := linalg.NewDense(batch, g.OutSize())
	for b := 0; b < batch; b++ {
		dst := y.Row(b)
		for sp := 0; sp < spatial; sp++ {
			src := prod.Row(b*spatial + sp)
			for oc := 0; oc < g.OutC; oc++ {
				dst[oc*spatial+sp] = src[oc] + c.bias[oc]
			}
		}
	}
	return y, nil
}

func (c *simConv) describe() string {
	tr, tc, sl := c.mat.Tiles()
	return fmt.Sprintf("conv2d-mvm %dx%dx%d k%d s%d p%d -> tiles %dx%d x %d slices",
		c.geom.InC, c.geom.InH, c.geom.InW, c.geom.Kernel, c.geom.Stride, c.geom.Pad, tr, tc, sl)
}

// simLinear executes linear-mvm.
type simLinear struct {
	mat  *Matrix
	bias []float64
}

func (l *simLinear) forward(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	y, err := l.mat.MVMContext(ctx, x)
	if err != nil {
		return nil, err
	}
	for b := 0; b < y.Rows; b++ {
		row := y.Row(b)
		for j := range row {
			row[j] += l.bias[j]
		}
	}
	return y, nil
}

func (l *simLinear) describe() string {
	tr, tc, sl := l.mat.Tiles()
	return fmt.Sprintf("linear-mvm %dx%d -> tiles %dx%d x %d slices", l.mat.In(), l.mat.Out(), tr, tc, sl)
}

// simDigital runs a stateless nn layer in the digital domain.
type simDigital struct {
	layer nn.Layer
}

func (d *simDigital) forward(_ context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	return d.layer.Forward(x, false), nil
}

func (d *simDigital) describe() string { return fmt.Sprintf("digital %T", d.layer) }

// simAffine applies a standalone (unfolded) BatchNorm as a per-channel
// affine transform.
type simAffine struct {
	c, spatial   int
	scale, shift []float64
}

func (a *simAffine) forward(_ context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	y := linalg.NewDense(x.Rows, x.Cols)
	for b := 0; b < x.Rows; b++ {
		in, out := x.Row(b), y.Row(b)
		for c := 0; c < a.c; c++ {
			for sp := 0; sp < a.spatial; sp++ {
				out[c*a.spatial+sp] = a.scale[c]*in[c*a.spatial+sp] + a.shift[c]
			}
		}
	}
	return y, nil
}

func (a *simAffine) describe() string { return fmt.Sprintf("affine %d channels", a.c) }

// simResidual replays a residual block: the body runs lowered, the
// skip is a digital add.
type simResidual struct {
	body *Sim
}

func (r *simResidual) forward(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	y, err := r.body.forwardCtx(ctx, x)
	if err != nil {
		return nil, err
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		return nil, fmt.Errorf("funcsim: residual body changed shape")
	}
	out := y.Clone()
	linalg.Axpy(1, x.Data, out.Data)
	return out, nil
}

func (r *simResidual) describe() string {
	return fmt.Sprintf("residual { %d lowered layers }", len(r.body.layers))
}
