package nn

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"geniex/internal/linalg"
)

// lossOf runs a forward pass in training mode and reduces the output
// with a fixed quadratic loss L = Σ w_i·y_i² (w fixed pseudo-random),
// which exercises every output element with distinct weights.
func lossOf(net Layer, x *linalg.Dense) float64 {
	y := net.Forward(x, true)
	var loss float64
	for i, v := range y.Data {
		w := 0.5 + float64(i%7)/7.0
		loss += w * v * v
	}
	return loss
}

// backOf computes analytic gradients for lossOf: dL/dy_i = 2·w_i·y_i.
func backOf(net Layer, x *linalg.Dense) *linalg.Dense {
	y := net.Forward(x, true)
	grad := linalg.NewDense(y.Rows, y.Cols)
	for i, v := range y.Data {
		w := 0.5 + float64(i%7)/7.0
		grad.Data[i] = 2 * w * v
	}
	return net.Backward(grad)
}

// checkGradients verifies both parameter and input gradients of net
// against central finite differences.
func checkGradients(t *testing.T, name string, net Layer, x *linalg.Dense, tol float64) {
	t.Helper()
	ZeroGrad(net.Params())
	dx := backOf(net, x)

	const h = 1e-5
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossOf(net, x)
		x.Data[i] = orig - h
		lm := lossOf(net, x)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad[%d] = %v, numeric %v", name, i, dx.Data[i], num)
		}
	}
	// Parameter gradients.
	for _, p := range net.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := lossOf(net, x)
			p.W.Data[i] = orig - h
			lm := lossOf(net, x)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %s grad[%d] = %v, numeric %v", name, p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func randInput(r *linalg.RNG, rows, cols int) *linalg.Dense {
	x := linalg.NewDense(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	return x
}

func TestLinearGradients(t *testing.T) {
	r := linalg.NewRNG(1)
	net := NewLinear(5, 4, true, r)
	checkGradients(t, "linear", net, randInput(r, 3, 5), 1e-6)
}

func TestLinearNoBiasGradients(t *testing.T) {
	r := linalg.NewRNG(2)
	net := NewLinear(4, 3, false, r)
	if len(net.Params()) != 1 {
		t.Fatalf("no-bias linear has %d params", len(net.Params()))
	}
	checkGradients(t, "linear-nobias", net, randInput(r, 2, 4), 1e-6)
}

func TestConvGradients(t *testing.T) {
	r := linalg.NewRNG(3)
	geom := ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 3, Kernel: 3, Stride: 1, Pad: 1}
	net := NewConv2D(geom, true, r)
	checkGradients(t, "conv", net, randInput(r, 2, geom.InSize()), 1e-6)
}

func TestConvStride2Gradients(t *testing.T) {
	r := linalg.NewRNG(4)
	geom := ConvGeom{InC: 2, InH: 6, InW: 6, OutC: 2, Kernel: 3, Stride: 2, Pad: 1}
	net := NewConv2D(geom, false, r)
	checkGradients(t, "conv-s2", net, randInput(r, 2, geom.InSize()), 1e-6)
}

func TestReLUGradients(t *testing.T) {
	r := linalg.NewRNG(5)
	net := NewSequential(NewLinear(4, 4, true, r), NewReLU())
	checkGradients(t, "relu", net, randInput(r, 3, 4), 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	r := linalg.NewRNG(6)
	net := NewSequential(NewMaxPool2D(2, 4, 4, 2))
	checkGradients(t, "maxpool", net, randInput(r, 2, 2*4*4), 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	r := linalg.NewRNG(7)
	net := NewSequential(NewGlobalAvgPool2D(3, 4, 4))
	checkGradients(t, "gap", net, randInput(r, 2, 3*4*4), 1e-6)
}

func TestBatchNormGradients(t *testing.T) {
	r := linalg.NewRNG(8)
	net := NewSequential(NewBatchNorm(3, 4))
	checkGradients(t, "batchnorm", net, randInput(r, 4, 12), 1e-4)
}

func TestResidualGradients(t *testing.T) {
	r := linalg.NewRNG(9)
	net := NewResidual(NewLinear(6, 6, true, r), NewReLU(), NewLinear(6, 6, true, r))
	checkGradients(t, "residual", net, randInput(r, 3, 6), 1e-5)
}

func TestDeepCompositeGradients(t *testing.T) {
	r := linalg.NewRNG(10)
	geom := ConvGeom{InC: 1, InH: 6, InW: 6, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D(geom, false, r),
		NewBatchNorm(2, 36),
		NewReLU(),
		NewMaxPool2D(2, 6, 6, 2),
		NewFlatten(),
		NewLinear(2*3*3, 5, true, r),
	)
	checkGradients(t, "composite", net, randInput(r, 3, 36), 1e-4)
}

func TestIm2ColKnown(t *testing.T) {
	// 1×3×3 input, 2×2 kernel, stride 1, no pad: 4 patches.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, OutC: 1, Kernel: 2, Stride: 1, Pad: 0}
	x := linalg.NewDenseFrom(1, 9, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	cols := Im2Col(x, g)
	want := [][]float64{{1, 2, 4, 5}, {2, 3, 5, 6}, {4, 5, 7, 8}, {5, 6, 8, 9}}
	for i, w := range want {
		for j, v := range w {
			if cols.At(i, j) != v {
				t.Errorf("cols(%d,%d) = %v, want %v", i, j, cols.At(i, j), v)
			}
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, OutC: 1, Kernel: 3, Stride: 1, Pad: 1}
	x := linalg.NewDenseFrom(1, 4, []float64{1, 2, 3, 4})
	cols := Im2Col(x, g)
	if cols.Rows != 4 || cols.Cols != 9 {
		t.Fatalf("cols shape %dx%d", cols.Rows, cols.Cols)
	}
	// Patch for output (0,0): padding everywhere except bottom-right 2x2.
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for j, v := range want {
		if cols.At(0, j) != v {
			t.Errorf("padded patch[%d] = %v, want %v", j, cols.At(0, j), v)
		}
	}
}

// Col2Im is the adjoint of Im2Col: ⟨Im2Col(x), y⟩ = ⟨x, Col2Im(y)⟩.
func TestCol2ImAdjoint(t *testing.T) {
	r := linalg.NewRNG(11)
	g := ConvGeom{InC: 2, InH: 5, InW: 4, OutC: 1, Kernel: 3, Stride: 2, Pad: 1}
	x := randInput(r, 3, g.InSize())
	cols := Im2Col(x, g)
	y := randInput(r, cols.Rows, cols.Cols)
	lhs := linalg.Dot(cols.Data, y.Data)
	back := Col2Im(y, g, 3)
	rhs := linalg.Dot(x.Data, back.Data)
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Errorf("adjoint identity broken: %v vs %v", lhs, rhs)
	}
}

func TestConvMatchesDirectConvolution(t *testing.T) {
	r := linalg.NewRNG(12)
	g := ConvGeom{InC: 2, InH: 4, InW: 4, OutC: 3, Kernel: 3, Stride: 1, Pad: 1}
	conv := NewConv2D(g, true, r)
	x := randInput(r, 2, g.InSize())
	y := conv.Forward(x, false)
	// Direct nested-loop convolution.
	for b := 0; b < x.Rows; b++ {
		for oc := 0; oc < g.OutC; oc++ {
			for oy := 0; oy < g.OutH(); oy++ {
				for ox := 0; ox < g.OutW(); ox++ {
					sum := conv.Bias.W.Data[oc]
					for c := 0; c < g.InC; c++ {
						for ky := 0; ky < g.Kernel; ky++ {
							for kx := 0; kx < g.Kernel; kx++ {
								iy, ix := oy+ky-g.Pad, ox+kx-g.Pad
								if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
									continue
								}
								wIdx := (c*g.Kernel+ky)*g.Kernel + kx
								sum += x.At(b, c*g.InH*g.InW+iy*g.InW+ix) * conv.Weight.W.At(wIdx, oc)
							}
						}
					}
					got := y.At(b, oc*g.OutH()*g.OutW()+oy*g.OutW()+ox)
					if math.Abs(got-sum) > 1e-10 {
						t.Fatalf("conv(%d,%d,%d,%d) = %v, want %v", b, oc, oy, ox, got, sum)
					}
				}
			}
		}
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	r := linalg.NewRNG(13)
	logits := randInput(r, 4, 5)
	labels := []int{0, 3, 2, 4}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("CE grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyValue(t *testing.T) {
	// Uniform logits over k classes: loss = ln k.
	logits := linalg.NewDense(1, 4)
	loss, _ := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("uniform CE = %v, want ln4 = %v", loss, math.Log(4))
	}
}

func TestMSEGradient(t *testing.T) {
	r := linalg.NewRNG(14)
	pred := randInput(r, 3, 4)
	target := randInput(r, 3, 4)
	loss, grad := MSE(pred, target)
	if loss < 0 {
		t.Fatal("negative MSE")
	}
	const h = 1e-6
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + h
		lp, _ := MSE(pred, target)
		pred.Data[i] = orig - h
		lm, _ := MSE(pred, target)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("MSE grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestAccuracyAndArgmax(t *testing.T) {
	logits := linalg.NewDenseFrom(3, 3, []float64{
		1, 2, 0,
		5, 1, 1,
		0, 0, 3,
	})
	if got := Argmax(logits); got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Errorf("argmax = %v", got)
	}
	if acc := Accuracy(logits, []int{1, 0, 0}); math.Abs(acc-2.0/3) > 1e-12 {
		t.Errorf("accuracy = %v", acc)
	}
}

// Training an MLP on XOR must converge — an end-to-end sanity check of
// forward, backward and the optimizer together.
func TestXORConverges(t *testing.T) {
	r := linalg.NewRNG(15)
	net := NewSequential(
		NewLinear(2, 8, true, r),
		NewReLU(),
		NewLinear(8, 2, true, r),
	)
	x := linalg.NewDenseFrom(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	opt := NewAdam(net.Params(), 0.05)
	for epoch := 0; epoch < 300; epoch++ {
		ZeroGrad(net.Params())
		logits := net.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step()
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc != 1 {
		t.Errorf("XOR accuracy = %v after training", acc)
	}
}

// SGD with momentum must reduce a quadratic loss monotonically for a
// small enough learning rate.
func TestSGDReducesLoss(t *testing.T) {
	r := linalg.NewRNG(16)
	net := NewSequential(NewLinear(3, 3, true, r))
	x := randInput(r, 8, 3)
	// A realizable target (generated by a random affine map) so the
	// optimum loss is exactly zero.
	truth := NewLinear(3, 3, true, r)
	target := truth.Forward(x, false)
	opt := NewSGD(net.Params(), 0.02, 0.9, 0)
	var first, last float64
	for i := 0; i < 200; i++ {
		ZeroGrad(net.Params())
		y := net.Forward(x, true)
		loss, grad := MSE(y, target)
		net.Backward(grad)
		opt.Step()
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last > first/100 || last > 0.01 {
		t.Errorf("SGD did not converge: first %v, last %v", first, last)
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	r := linalg.NewRNG(17)
	bn := NewBatchNorm(2, 3)
	x := randInput(r, 16, 6)
	// Shift the raw data so normalization has work to do.
	for i := range x.Data {
		x.Data[i] = x.Data[i]*3 + 5
	}
	y := bn.Forward(x, true)
	// Per-channel mean ≈ 0, variance ≈ 1 (gamma=1, beta=0 initially).
	for c := 0; c < 2; c++ {
		var sum, sq float64
		n := 0
		for b := 0; b < y.Rows; b++ {
			seg := y.Row(b)[c*3 : (c+1)*3]
			for _, v := range seg {
				sum += v
				sq += v * v
				n++
			}
		}
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-10 || math.Abs(variance-1) > 1e-3 {
			t.Errorf("channel %d: mean=%v var=%v", c, mean, variance)
		}
	}
}

func TestBatchNormFoldMatchesEval(t *testing.T) {
	r := linalg.NewRNG(18)
	bn := NewBatchNorm(3, 2)
	// Accumulate running stats over a few training batches.
	for i := 0; i < 20; i++ {
		bn.Forward(randInput(r, 8, 6), true)
	}
	x := randInput(r, 4, 6)
	want := bn.Forward(x, false)
	scale, shift := bn.FoldInto()
	for b := 0; b < x.Rows; b++ {
		for c := 0; c < 3; c++ {
			for s := 0; s < 2; s++ {
				got := scale[c]*x.At(b, c*2+s) + shift[c]
				if math.Abs(got-want.At(b, c*2+s)) > 1e-12 {
					t.Fatalf("fold mismatch at (%d,%d,%d): %v vs %v", b, c, s, got, want.At(b, c*2+s))
				}
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := linalg.NewRNG(19)
	geom := ConvGeom{InC: 1, InH: 4, InW: 4, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D(geom, false, r),
		NewBatchNorm(2, 16),
		NewReLU(),
		NewResidual(NewLinear(32, 32, true, r)),
		NewLinear(32, 3, true, r),
	)
	x := randInput(r, 2, 16)
	want := net.Forward(x, false)

	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	y := got.Forward(x, false)
	for i := range want.Data {
		if want.Data[i] != y.Data[i] {
			t.Fatalf("round-trip output differs at %d: %v vs %v", i, want.Data[i], y.Data[i])
		}
	}
}

func TestNumParams(t *testing.T) {
	r := linalg.NewRNG(20)
	net := NewSequential(NewLinear(3, 4, true, r))
	if got := NumParams(net.Params()); got != 3*4+4 {
		t.Errorf("NumParams = %d, want 16", got)
	}
}

// Adam's update is element-wise, so splitting a large parameter across
// workers steps it to the same bits at GOMAXPROCS 1 and 2.
func TestAdamParallelMatchesSerial(t *testing.T) {
	run := func(procs int) []float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := linalg.NewRNG(5)
		w := newParam("w", 3, adamParallelMin) // split at 2 workers
		b := newParam("b", 1, 7)               // stepped serially
		for _, p := range []*Param{w, b} {
			for i := range p.W.Data {
				p.W.Data[i] = r.Norm()
			}
		}
		opt := NewAdam([]*Param{w, b}, 1e-3)
		for step := 0; step < 5; step++ {
			for _, p := range []*Param{w, b} {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = r.Norm()
				}
			}
			opt.Step()
		}
		return append(w.W.Data, b.W.Data...)
	}
	serial, parallel := run(1), run(2)
	for i := range serial {
		if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
			t.Fatalf("element %d: %v at GOMAXPROCS 1, %v at 2", i, serial[i], parallel[i])
		}
	}
}

// BenchmarkAdamStep times one Adam step over a single parameter of
// each size; run with -cpu 1,2 to see where adamParallelMin's split
// starts to pay.
func BenchmarkAdamStep(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 16, 1 << 18} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			p := newParam("w", 1, n)
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float64(i%7) - 3
			}
			opt := NewAdam([]*Param{p}, 1e-3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step()
			}
		})
	}
}
