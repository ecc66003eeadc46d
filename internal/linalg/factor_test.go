package linalg

import (
	"errors"
	"fmt"
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

// refCholeskyFactor is Cholesky.Factor one row at a time, the loop
// the four-row kernel replaced: it factors a in place.
func refCholeskyFactor(a *Dense) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		rowJ := a.Row(j)
		s := rowJ[j]
		for k := 0; k < j; k++ {
			s -= rowJ[k] * rowJ[k]
		}
		if !(s > 0) {
			return ErrSingular
		}
		piv := math.Sqrt(s)
		rowJ[j] = piv
		for i := j + 1; i < n; i++ {
			rowI := a.Row(i)
			s := rowI[j]
			for k := 0; k < j; k++ {
				s -= rowI[k] * rowJ[k]
			}
			rowI[j] = s / piv
		}
	}
	return nil
}

// refCholeskySolve is Cholesky.SolveInto one row at a time through
// the factor l, the loops the multi-row kernel replaced. x may alias
// b.
func refCholeskySolve(l *Dense, x, b []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	for i := n - 1; i >= 0; i-- {
		row := l.Row(i)[:i+1]
		xi := x[i] / row[i]
		x[i] = xi
		for k, lik := range row[:i] {
			x[k] -= lik * xi
		}
	}
}

// nearSingularSPD builds an SPD matrix with one eigenvalue of 1e-9
// against the others' O(n): A = MᵀM + 1e-9·I with M of rank n−1. Its
// last pivot cancels all but a sliver of its diagonal, and solves
// through it amplify every rounding difference, so a reordered
// subtraction or a reciprocal pivot shows in the last bits.
func nearSingularSPD(r *RNG, n int) *Dense {
	m := NewDense(n-1, n)
	for i := range m.Data {
		m.Data[i] = 2*r.Float64() - 1
	}
	a := MatMul(m.T(), m)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1e-9)
	}
	return a
}

// The four-row Factor and the multi-row SolveInto must reproduce the
// row-at-a-time loops bit for bit at every size modulo four, on a
// well-conditioned and a near-singular matrix, with x apart from b and
// aliasing it.
func TestCholeskyMatchesRowReference(t *testing.T) {
	r := NewRNG(46)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		for _, tc := range []struct {
			name string
			a    *Dense
		}{{"random", randSPD(r, n)}, {"near-singular", nearSingularSPD(r, n)}} {
			want, got := tc.a.Clone(), tc.a.Clone()
			if err := refCholeskyFactor(want); err != nil {
				t.Fatalf("n=%d %s: reference: %v", n, tc.name, err)
			}
			c := &Cholesky{}
			if err := c.Factor(got); err != nil {
				t.Fatalf("n=%d %s: %v", n, tc.name, err)
			}
			name := fmt.Sprintf("n=%d %s", n, tc.name)
			sameBits(t, name+" factor", got, want)
			for trial := 0; trial < 3; trial++ {
				b := make([]float64, n)
				for i := range b {
					b[i] = 2*r.Float64() - 1
				}
				wantX, x := make([]float64, n), make([]float64, n)
				refCholeskySolve(want, wantX, b)
				c.SolveInto(x, b)
				sameBits(t, name+" x", NewDenseFrom(1, n, x), NewDenseFrom(1, n, wantX))
				c.SolveInto(b, b)
				sameBits(t, name+" in-place x", NewDenseFrom(1, n, b), NewDenseFrom(1, n, wantX))
			}
		}
	}
}

// Tridiag.SchurLower must reduce the lower triangle and diagonal
// exactly as the column-at-a-time update does, one single-vector solve
// per column, and leave the strict upper triangle as it was.
func TestTridiagSchurLowerMatchesColumnReference(t *testing.T) {
	r := NewRNG(47)
	for _, n := range []int{1, 2, 3, 8, 13} {
		diag, off := randSPDTridiag(r, n)
		f := &Tridiag{}
		if err := f.Factor(diag, off); err != nil {
			t.Fatal(err)
		}
		g := make([]float64, n)
		for i := range g {
			g[i] = 0.5 + r.Float64()
		}
		d := randSPD(r, n)
		want, got := d.Clone(), d.Clone()
		col := make([]float64, n)
		for k := 0; k < n; k++ {
			Fill(col, 0)
			col[k] = g[k]
			f.SolveInto(col, col)
			for j := 0; j < n; j++ {
				want.Data[j*n+k] -= g[j] * col[j]
			}
		}
		w := make([]float64, n*n)
		Fill(w, math.NaN()) // SchurLower must not read stale scratch
		f.SchurLower(got, g, w)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				ref := want.At(j, k)
				if k > j {
					ref = d.At(j, k)
				}
				if v := got.At(j, k); math.Float64bits(v) != math.Float64bits(ref) {
					t.Fatalf("n=%d entry (%d,%d): %v, want %v", n, j, k, v, ref)
				}
			}
		}
	}
}

// refFactorBlockTridiag factors diag in place the way BlockTridiag
// factored before it reduced only lower triangles: every entry of
// each Schur block, each column of T_{i-1}⁻¹·diag(e) from one
// single-vector solve, and Cholesky one row at a time. It returns the
// factor those levels make.
func refFactorBlockTridiag(t *testing.T, diag []*Dense, off [][]float64) *BlockTridiag {
	bs := diag[0].Rows
	f := &BlockTridiag{levels: len(diag), bs: bs, chol: make([]Cholesky, len(diag)), off: off}
	col := make([]float64, bs)
	for i, d := range diag {
		if i > 0 {
			e := off[i-1]
			for k := 0; k < bs; k++ {
				Fill(col, 0)
				col[k] = e[k]
				refCholeskySolve(diag[i-1], col, col)
				for j := 0; j < bs; j++ {
					d.Data[j*bs+k] -= e[j] * col[j]
				}
			}
		}
		if err := refCholeskyFactor(d); err != nil {
			t.Fatal(err)
		}
		f.chol[i] = Cholesky{n: bs, l: d}
	}
	return f
}

// BlockTridiag.Factor must give each level the reference's factor in
// the part a solve reads, its lower triangle and diagonal, bit for
// bit, and so solve every right-hand side exactly as the reference
// factor does, one vector or a block of them; refactoring into reused
// storage (a repeated shape, then a new one) must too. The block sizes
// run the Schur step's groups of eight columns and its four- and
// one-lane tails.
func TestBlockTridiagFactorMatchesColumnReference(t *testing.T) {
	r := NewRNG(45)
	var reused BlockTridiag
	for _, dims := range [][2]int{{1, 4}, {3, 1}, {4, 5}, {6, 8}, {6, 8}, {3, 13}, {3, 19}, {4, 5}} {
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
		n, m, ld := levels*bs, 5, 7
		b := make([]float64, n*ld)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		tmp := make([]float64, bs*ld)
		wantX, wantBlock := make([]float64, n), make([]float64, n*ld)
		want.SolveInto(wantX, b[:n], tmp)
		want.SolveBlockInto(wantBlock, b, tmp, m, ld)
		for _, got := range []*BlockTridiag{fresh, &reused} {
			for i, c := range want.chol {
				for j := 0; j < bs; j++ {
					row := func(d *Dense) *Dense { return NewDenseFrom(1, j+1, d.Data[j*bs:j*bs+j+1]) }
					sameBits(t, fmt.Sprintf("levels=%d bs=%d level %d row %d", levels, bs, i, j), row(got.chol[i].l), row(c.l))
				}
			}
			x, xb := make([]float64, n), make([]float64, n*ld)
			got.SolveInto(x, b[:n], tmp)
			sameBits(t, fmt.Sprintf("levels=%d bs=%d SolveInto", levels, bs), NewDenseFrom(1, n, x), NewDenseFrom(1, n, wantX))
			got.SolveBlockInto(xb, b, tmp, m, ld)
			for j := 0; j < n; j++ {
				lanes := func(v []float64) *Dense { return NewDenseFrom(1, m, v[j*ld:j*ld+m]) }
				sameBits(t, fmt.Sprintf("levels=%d bs=%d SolveBlockInto row %d", levels, bs, j), lanes(xb), lanes(wantBlock))
			}
		}
	}
}
