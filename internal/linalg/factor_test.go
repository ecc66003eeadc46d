package linalg

import (
	"errors"
	"math"
	"testing"
)

// randSPDTridiag builds a diagonally dominant (hence SPD) symmetric
// tridiagonal system.
func randSPDTridiag(r *RNG, n int) (diag, off []float64) {
	diag = make([]float64, n)
	off = make([]float64, n-1)
	for i := range off {
		off[i] = -r.Float64()
	}
	for i := range diag {
		diag[i] = 2.5 + r.Float64()
	}
	return diag, off
}

// tridiagDense expands a symmetric tridiagonal matrix to dense form.
func tridiagDense(diag, off []float64) *Dense {
	n := len(diag)
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, diag[i])
		if i+1 < n {
			a.Set(i, i+1, off[i])
			a.Set(i+1, i, off[i])
		}
	}
	return a
}

func TestTridiagSolveMatchesDense(t *testing.T) {
	r := NewRNG(41)
	for _, n := range []int{1, 2, 5, 33} {
		diag, off := randSPDTridiag(r, n)
		f := &Tridiag{}
		if err := f.Factor(diag, off); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		want, err := SolveDense(tridiagDense(diag, off), b)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		f.SolveInto(got, b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		// In-place solve (x aliasing b) must give the same answer.
		f.SolveInto(b, b)
		for i := range b {
			if b[i] != got[i] {
				t.Fatalf("n=%d aliased solve differs at %d", n, i)
			}
		}
	}
}

func TestTridiagRejectsIndefinite(t *testing.T) {
	if err := new(Tridiag).Factor([]float64{1, -2}, []float64{0}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// randSPD builds a random SPD matrix A = MᵀM + n·I.
func randSPD(r *RNG, n int) *Dense {
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = 2*r.Float64() - 1
	}
	a := MatMul(m.T(), m)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskySolveMatchesDense(t *testing.T) {
	r := NewRNG(42)
	for _, n := range []int{1, 3, 8, 20} {
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		want, err := SolveDense(a.Clone(), b)
		if err != nil {
			t.Fatal(err)
		}
		c := &Cholesky{}
		if err := c.Factor(a.Clone()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := make([]float64, n)
		c.SolveInto(got, b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if err := new(Cholesky).Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// blockTridiagSystem builds a random SPD block tridiagonal system with
// dense diagonal blocks and diagonal off-blocks, returning both the
// block form and the assembled dense matrix.
func blockTridiagSystem(r *RNG, levels, bs int) (diag []*Dense, off [][]float64, a *Dense) {
	n := levels * bs
	a = NewDense(n, n)
	diag = make([]*Dense, levels)
	off = make([][]float64, levels-1)
	for i := 0; i < levels; i++ {
		diag[i] = randSPD(r, bs)
		// Strengthen the diagonal so the whole assembled matrix stays
		// SPD despite the off-blocks.
		for j := 0; j < bs; j++ {
			diag[i].Set(j, j, diag[i].At(j, j)+4)
		}
		for j := 0; j < bs; j++ {
			for k := 0; k < bs; k++ {
				a.Set(i*bs+j, i*bs+k, diag[i].At(j, k))
			}
		}
	}
	for i := 0; i < levels-1; i++ {
		off[i] = make([]float64, bs)
		for j := 0; j < bs; j++ {
			off[i][j] = 2*r.Float64() - 1
			a.Set(i*bs+j, (i+1)*bs+j, off[i][j])
			a.Set((i+1)*bs+j, i*bs+j, off[i][j])
		}
	}
	return diag, off, a
}

func TestBlockTridiagSolveMatchesDense(t *testing.T) {
	r := NewRNG(43)
	for _, dims := range [][2]int{{1, 4}, {3, 1}, {4, 5}, {6, 8}} {
		levels, bs := dims[0], dims[1]
		diag, off, a := blockTridiagSystem(r, levels, bs)
		n := levels * bs
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		want, err := SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		f := &BlockTridiag{}
		if err := f.Factor(diag, off); err != nil {
			t.Fatalf("levels=%d bs=%d: %v", levels, bs, err)
		}
		if f.N() != n || f.BlockSize() != bs {
			t.Fatalf("dims: N=%d BlockSize=%d", f.N(), f.BlockSize())
		}
		got := make([]float64, n)
		tmp := make([]float64, bs)
		f.SolveInto(got, b, tmp)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("levels=%d bs=%d x[%d] = %v, want %v", levels, bs, i, got[i], want[i])
			}
		}
		// Aliased in-place solve.
		f.SolveInto(b, b, tmp)
		for i := range b {
			if b[i] != got[i] {
				t.Fatalf("levels=%d bs=%d aliased solve differs at %d", levels, bs, i)
			}
		}
	}
}

// The block solves must reproduce the one-vector solves bit for bit in
// every lane, for any lane count (so every register tier and tail
// runs), with spare lanes in the stride, in place or not.
func TestSolveBlockIntoMatchesSolveInto(t *testing.T) {
	r := NewRNG(44)
	levels, bs := 5, 7
	diagT, offT := randSPDTridiag(r, bs)
	tri := &Tridiag{}
	if err := tri.Factor(diagT, offT); err != nil {
		t.Fatal(err)
	}
	chol := &Cholesky{}
	if err := chol.Factor(randSPD(r, bs)); err != nil {
		t.Fatal(err)
	}
	diag, off, _ := blockTridiagSystem(r, levels, bs)
	bt := &BlockTridiag{}
	if err := bt.Factor(diag, off); err != nil {
		t.Fatal(err)
	}
	tmp1 := make([]float64, bs)
	solvers := []struct {
		name  string
		n     int
		one   func(x, b []float64)
		block func(x, b []float64, m, ld int)
	}{
		{"Tridiag", bs, tri.SolveInto, tri.SolveBlockInto},
		{"Cholesky", bs, chol.SolveInto, chol.SolveBlockInto},
		{"BlockTridiag", levels * bs,
			func(x, b []float64) { bt.SolveInto(x, b, tmp1) },
			func(x, b []float64, m, ld int) { bt.SolveBlockInto(x, b, make([]float64, bs*ld), m, ld) }},
	}
	for _, s := range solvers {
		for _, m := range []int{1, 2, 3, 4, 5, 8, 9, 13, 16, 19} {
			ld := m + 3
			b := make([]float64, s.n*ld)
			for i := range b {
				b[i] = 2*r.Float64() - 1
			}
			want := make([][]float64, m)
			for l := range want {
				col := make([]float64, s.n)
				for i := range col {
					col[i] = b[i*ld+l]
				}
				want[l] = make([]float64, s.n)
				s.one(want[l], col)
			}
			x := make([]float64, len(b))
			s.block(x, b, m, ld)
			s.block(b, b, m, ld) // in place
			for l := 0; l < m; l++ {
				for i := 0; i < s.n; i++ {
					if x[i*ld+l] != want[l][i] || b[i*ld+l] != want[l][i] {
						t.Fatalf("%s m=%d lane %d row %d: block %v, in place %v, one-vector %v",
							s.name, m, l, i, x[i*ld+l], b[i*ld+l], want[l][i])
					}
				}
			}
		}
	}
}

// refFactorBlockTridiag is the column-at-a-time Schur update: each
// column of T_{i-1}⁻¹·diag(e) from one single-vector Cholesky solve.
// It factors diag in place and returns the per-level factors.
func refFactorBlockTridiag(t *testing.T, diag []*Dense, off [][]float64) []*Cholesky {
	bs := diag[0].Rows
	chol := make([]*Cholesky, len(diag))
	col := make([]float64, bs)
	for i, d := range diag {
		if i > 0 {
			e := off[i-1]
			for k := 0; k < bs; k++ {
				Fill(col, 0)
				col[k] = e[k]
				chol[i-1].SolveInto(col, col)
				for j := 0; j < bs; j++ {
					d.Data[j*bs+k] -= e[j] * col[j]
				}
			}
		}
		chol[i] = &Cholesky{}
		if err := chol[i].Factor(d); err != nil {
			t.Fatal(err)
		}
	}
	return chol
}

// BlockTridiag.Factor's block Schur columns must give the factor the
// column-at-a-time reference gives, bit for bit, and refactoring into
// reused storage (a repeated shape, then a new one) must too.
func TestBlockTridiagFactorMatchesColumnReference(t *testing.T) {
	r := NewRNG(45)
	var reused BlockTridiag
	for _, dims := range [][2]int{{1, 4}, {3, 1}, {4, 5}, {6, 8}, {6, 8}, {4, 5}} {
		levels, bs := dims[0], dims[1]
		diag, off, _ := blockTridiagSystem(r, levels, bs)
		// Scale the off-blocks to near the SPD limit (the diagonal
		// blocks' eigenvalues are at least bs+4), so the Schur terms
		// are as large as the diagonal and a last-bit change in a Schur
		// column survives the subtraction.
		for _, e := range off {
			Scale(0.45*float64(bs+4), e)
		}
		clone := func() []*Dense {
			c := make([]*Dense, levels)
			for i, d := range diag {
				c[i] = d.Clone()
			}
			return c
		}
		want := refFactorBlockTridiag(t, clone(), off)
		fresh := &BlockTridiag{}
		if err := fresh.Factor(clone(), off); err != nil {
			t.Fatal(err)
		}
		if err := reused.Factor(clone(), off); err != nil {
			t.Fatal(err)
		}
		for _, got := range []*BlockTridiag{fresh, &reused} {
			for i, c := range want {
				for k, v := range c.l.Data {
					if g := got.chol[i].l.Data[k]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("levels=%d bs=%d level %d entry %d: %v, reference %v", levels, bs, i, k, g, v)
					}
				}
			}
		}
	}
}
