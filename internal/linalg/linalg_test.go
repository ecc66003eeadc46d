package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("split streams start identically")
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	y := Copy(b)
	Axpy(2, a, y)
	want := []float64{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestVectorOpsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestRMSE(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{2, 2, 2, 2}
	if got := RMSE(a, b); got != 2 {
		t.Errorf("RMSE = %v, want 2", got)
	}
	if got := RMSE(a, a); got != 0 {
		t.Errorf("RMSE self = %v, want 0", got)
	}
}

func TestDenseMatMulKnown(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data {
		if v != want[i] {
			t.Errorf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestDenseTranspose(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T dims = %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Property: MatMulATB(A, B) == MatMul(Aᵀ, B) and MatMulABT(A, B) ==
// MatMul(A, Bᵀ) on random matrices.
func TestMatMulVariantsAgree(t *testing.T) {
	r := NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := NewDense(m, k)
		b := NewDense(m, n)
		c := NewDense(m, k)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		for i := range b.Data {
			b.Data[i] = r.Norm()
		}
		for i := range c.Data {
			c.Data[i] = r.Norm()
		}
		atb := MatMulATB(a, b)
		atbRef := MatMul(a.T(), b)
		for i := range atb.Data {
			if !almostEqual(atb.Data[i], atbRef.Data[i], 1e-12) {
				t.Fatalf("ATB mismatch at %d: %v vs %v", i, atb.Data[i], atbRef.Data[i])
			}
		}
		abt := MatMulABT(a, c)
		abtRef := MatMul(a, c.T())
		for i := range abt.Data {
			if !almostEqual(abt.Data[i], abtRef.Data[i], 1e-12) {
				t.Fatalf("ABT mismatch at %d: %v vs %v", i, abt.Data[i], abtRef.Data[i])
			}
		}
	}
}

// refMatMul is the plain ikj loop with its zero skip (NaN kept, ±0
// skipped) that MatMul must reproduce bit for bit.
func refMatMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// refMatMulATB is Aᵀ·B as the same loop over A's rows, i ascending.
func refMatMulATB(a, b *Dense) *Dense {
	out := NewDense(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		brow := b.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			orow := out.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// refMatMulABT is A·Bᵀ as one Dot per output.
func refMatMulABT(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, Dot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

// specialDense fills a rows×cols matrix with normals, exact zeros of
// both signs, and one NaN, +Inf and −Inf each.
func specialDense(r *RNG, rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		switch r.Intn(5) {
		case 0:
			d.Data[i] = 0
		case 1:
			d.Data[i] = math.Copysign(0, -1)
		default:
			d.Data[i] = r.Norm()
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d.Data[r.Intn(len(d.Data))] = v
	}
	return d
}

// infDense fills a rows×cols matrix with normals and one +Inf, which
// turns into NaN wherever a skipped zero of A would multiply it.
func infDense(r *RNG, rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = r.Norm()
	}
	d.Data[r.Intn(len(d.Data))] = math.Inf(1)
	return d
}

// sameBits requires got to equal want bit for bit, except that a NaN
// matches any NaN: when both operands of an add are NaN, which payload
// survives depends on the register the compiler gives the sum, not on
// the order of operations, and Go leaves it unspecified.
func sameBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i]) {
			continue
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", name, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// The register-blocked gather kernel keeps every output's products and
// their order, so each product equals its unblocked loop bit for bit:
// output widths 1–19 cover the 8/4/1 tails, an inner dimension of 300
// crosses a gather chunk, and the last case is large enough for
// MatMul to fan out across workers.
func TestMatMulBitIdenticalToReference(t *testing.T) {
	r := NewRNG(23)
	type shape struct{ m, k, n int }
	var shapes []shape
	for n := 1; n <= 19; n++ {
		for _, k := range []int{1, 7, 300} {
			shapes = append(shapes, shape{3, k, n})
		}
	}
	shapes = append(shapes, shape{64, 300, 19})
	for _, sh := range shapes {
		name := func(op string) string { return fmt.Sprintf("%s %dx%dx%d", op, sh.m, sh.k, sh.n) }
		a := specialDense(r, sh.m, sh.k)
		b := infDense(r, sh.k, sh.n)
		want := refMatMul(a, b)
		sameBits(t, name("MatMul"), MatMul(a, b), want)
		serial := NewDense(sh.m, sh.n)
		MatMulSerialInto(serial, a, b)
		sameBits(t, name("MatMulSerialInto"), serial, want)

		// Aᵀ·B: A is k×m here so the inner dimension is k.
		at := specialDense(r, sh.k, sh.m)
		bt := infDense(r, sh.k, sh.n)
		sameBits(t, name("MatMulATB"), MatMulATB(at, bt), refMatMulATB(at, bt))

		// A·Bᵀ: B has n rows, so the output width is n.
		bn := infDense(r, sh.n, sh.k)
		sameBits(t, name("MatMulABT"), MatMulABT(a, bn), refMatMulABT(a, bn))
	}
}

// Property: MatMul distributes over the identity (A·I = A).
func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(15)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		id := NewDense(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		c := MatMul(a, id)
		for i := range c.Data {
			if !almostEqual(c.Data[i], a.Data[i], 1e-14) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParallelForCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 1000} {
		hit := make([]int32, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{2, 1, 1, 3})
	x, err := SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// Property: LU solve reproduces b for random well-conditioned systems.
func TestLURoundTrip(t *testing.T) {
	r := NewRNG(43)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(25)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Norm()
		}
		b := a.MulVec(xTrue)
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-9) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Min != 1 || s.Max != 4 || s.Median != 2.5 || s.Mean != 2.5 {
		t.Errorf("summary = %+v", s)
	}
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
}

func TestQuantileEdges(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if Quantile(sorted, 0) != 1 || Quantile(sorted, 1) != 5 {
		t.Error("quantile edge values wrong")
	}
	if Quantile(sorted, 0.5) != 3 {
		t.Errorf("median = %v", Quantile(sorted, 0.5))
	}
}

func TestHistogram(t *testing.T) {
	edges, counts := Histogram([]float64{0, 0.5, 0.99, 1.0, -1}, 2, 0, 1)
	if len(edges) != 3 || len(counts) != 2 {
		t.Fatalf("dims: %d edges, %d counts", len(edges), len(counts))
	}
	if counts[0] != 1 || counts[1] != 3 {
		t.Errorf("counts = %v, want [1 3]", counts)
	}
}

func TestNormInf(t *testing.T) {
	if NormInf(nil) != 0 {
		t.Error("NormInf(nil) != 0")
	}
	if got := NormInf([]float64{-3, 2, 1}); got != 3 {
		t.Errorf("NormInf = %v, want 3", got)
	}
}

func TestDenseMulVecPanics(t *testing.T) {
	m := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dimension mismatch")
		}
	}()
	m.MulVec(make([]float64, 2))
}

// Property: quantiles are monotone in q.
func TestQuantileMonotone(t *testing.T) {
	r := NewRNG(51)
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = r.Norm()
	}
	s := Summarize(vals) // sorts internally; reuse for sanity
	if s.Q1 > s.Median || s.Median > s.Q3 {
		t.Errorf("quartiles out of order: %+v", s)
	}
}
