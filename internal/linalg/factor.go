package linalg

import (
	"fmt"
	"math"
)

// This file provides the Factor-once / SolveInto-many direct solvers
// the crossbar's MNA structure calls for: a symmetric tridiagonal
// LDLᵀ (the word-line / bit-line wire chains), a dense Cholesky (the
// Schur-complement blocks those chains reduce to), and a symmetric
// block-tridiagonal solver composed of the two. All three separate
// factorization (done once per programmed operating point) from
// back-substitution (done once per right-hand side), and all their
// SolveInto methods are allocation-free and safe for concurrent use on
// a shared, already-factored receiver.
//
// Each also has a block form, SolveBlockInto, for m right-hand sides
// at once. A block holds them lane-minor: row i of right-hand side r
// sits at x[i*ld+r], r < m ≤ ld, so one pass over the factor serves
// every lane and the innermost loop runs across the m independent
// chains instead of along one dependent chain. Each lane goes through
// exactly the operations SolveInto applies to one vector, in the same
// order, so every lane is bit-identical to the one-vector solve. The
// one-vector forms stay: at one right-hand side they are about twice
// as fast, and they are the reference the block forms are tested
// against.

// Tridiag is the LDLᵀ factorization of a symmetric tridiagonal matrix.
// Factor once, then SolveInto for as many right-hand sides as needed.
// The zero value is an empty factor ready for Factor.
type Tridiag struct {
	n int
	d []float64 // pivots of D
	l []float64 // subdiagonal multipliers of unit L, length n-1
}

// Factor factors the symmetric tridiagonal matrix with the given
// diagonal (length n) and symmetric off-diagonal (length n-1) into t,
// reusing t's storage when it is large enough. The matrix must be
// positive definite; a non-positive (or NaN) pivot returns an error
// matching ErrSingular and leaves t unusable until the next Factor.
func (t *Tridiag) Factor(diag, off []float64) error {
	n := len(diag)
	if len(off) != n-1 && !(n == 0 && len(off) == 0) {
		panic(fmt.Sprintf("linalg: Tridiag.Factor n=%d len(off)=%d", n, len(off)))
	}
	t.n = n
	t.d = grow(t.d, n)
	t.l = grow(t.l, max(n-1, 0))
	prev := 0.0
	for i := 0; i < n; i++ {
		piv := diag[i]
		if i > 0 {
			piv -= t.l[i-1] * prev
		}
		if !(piv > 0) {
			return fmt.Errorf("linalg: tridiagonal pivot %g at row %d: %w", piv, i, ErrSingular)
		}
		t.d[i] = piv
		if i+1 < n {
			t.l[i] = off[i] / piv
			prev = off[i]
		}
	}
	return nil
}

// grow returns s resized to n, reusing its backing array when capacity
// allows. Contents are unspecified.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// N returns the factored dimension.
func (t *Tridiag) N() int { return t.n }

// SolveInto solves the factored system into x (length n). x may alias
// b; the solve is in place and allocation-free.
func (t *Tridiag) SolveInto(x, b []float64) {
	if len(x) != t.n || len(b) != t.n {
		panic(fmt.Sprintf("linalg: Tridiag.SolveInto n=%d len(x)=%d len(b)=%d", t.n, len(x), len(b)))
	}
	// Forward: L y = b.
	if t.n > 0 {
		x[0] = b[0]
	}
	for i := 1; i < t.n; i++ {
		x[i] = b[i] - t.l[i-1]*x[i-1]
	}
	// Diagonal and backward: D z = y, Lᵀ x = z.
	for i := t.n - 1; i >= 0; i-- {
		x[i] /= t.d[i]
		if i+1 < t.n {
			x[i] -= t.l[i] * x[i+1]
		}
	}
}

// SolveBlockInto solves the factored system for the m lane-minor
// right-hand sides in b (row stride ld) into x, lane for lane
// bit-identical to SolveInto. x may alias b.
func (t *Tridiag) SolveBlockInto(x, b []float64, m, ld int) {
	checkBlock("Tridiag", t.n, len(x), len(b), m, ld)
	if t.n == 0 {
		return
	}
	copy(x[:m], b[:m])
	for i := 1; i < t.n; i++ {
		l := t.l[i-1]
		xp, xi, bi := x[(i-1)*ld:(i-1)*ld+m], x[i*ld:i*ld+m], b[i*ld:i*ld+m]
		for r := range xi {
			xi[r] = bi[r] - l*xp[r]
		}
	}
	last := x[(t.n-1)*ld : (t.n-1)*ld+m]
	d := t.d[t.n-1]
	for r := range last {
		last[r] /= d
	}
	for i := t.n - 2; i >= 0; i-- {
		d, l := t.d[i], t.l[i]
		xi, xn := x[i*ld:i*ld+m], x[(i+1)*ld:(i+1)*ld+m]
		for r := range xi {
			xi[r] /= d
			xi[r] -= l * xn[r]
		}
	}
}

// SchurLower subtracts G·A⁻¹·G, G = diag(g), from the lower triangle
// and the diagonal of d (n×n), where A is the matrix t factors, using w
// (n·n) as scratch. d's strict upper triangle keeps its values.
//
// Column k of A⁻¹·G is the solve of g_k·unit(k), and only its rows
// k … n−1 are needed, so row i of each sweep runs lanes 0 … i only:
// lane k enters the forward sweep at its own row, above which its
// iterates are exact zeros, and leaves the backward sweep there. Every
// kept entry is bit for bit what SolveBlockInto over diag(g) gives it,
// for half the work.
func (t *Tridiag) SchurLower(d *Dense, g, w []float64) {
	n := t.n
	if d.Rows != n || d.Cols != n || len(g) != n || len(w) < n*n {
		panic(fmt.Sprintf("linalg: Tridiag.SchurLower n=%d d %dx%d len(g)=%d len(w)=%d", n, d.Rows, d.Cols, len(g), len(w)))
	}
	// Forward: L y = G.
	for i := 0; i < n; i++ {
		wi := w[i*n : i*n+i+1]
		Fill(wi, 0)
		wi[i] = g[i]
		if i > 0 {
			l := t.l[i-1]
			for k, v := range w[(i-1)*n : (i-1)*n+i] {
				wi[k] -= l * v
			}
		}
	}
	// Diagonal and backward: D z = y, Lᵀ x = z; then row i of the
	// update.
	for i := n - 1; i >= 0; i-- {
		wi, di := w[i*n:i*n+i+1], t.d[i]
		if i+1 < n {
			l, wn := t.l[i], w[(i+1)*n:(i+1)*n+i+1]
			for k := range wi {
				wi[k] /= di
				wi[k] -= l * wn[k]
			}
		} else {
			for k := range wi {
				wi[k] /= di
			}
		}
		gi, row := g[i], d.Data[i*n:i*n+i+1]
		for k := range row {
			row[k] -= gi * wi[k]
		}
	}
}

// checkBlock panics unless x and b hold n rows of stride ld with
// 1 ≤ m ≤ ld lanes each.
func checkBlock(kind string, n, lx, lb, m, ld int) {
	need := 0
	if n > 0 {
		need = (n-1)*ld + m
	}
	if m < 1 || m > ld || lx < need || lb < need {
		panic(fmt.Sprintf("linalg: %s.SolveBlockInto n=%d m=%d ld=%d len(x)=%d len(b)=%d", kind, n, m, ld, lx, lb))
	}
}

// Cholesky is the lower-triangular factorization A = L·Lᵀ of a dense
// symmetric positive definite matrix. The zero value is an empty
// factor ready for Factor.
//
// Factor and SolveInto each work several rows per pass: the rows keep
// separate running sums side by side, so that several dependent
// chains of subtractions run at once where one row at a time runs one.
// Every row still subtracts its terms in the row-at-a-time order and
// divides by its pivot, with no reciprocal and no reassociation, so
// the factor and the solutions are bit for bit what one row at a time
// gives.
type Cholesky struct {
	n int
	l *Dense // lower triangle, including the diagonal
}

// Factor factors the symmetric positive definite matrix a in place
// into c: a's storage becomes the factor (only its lower triangle is
// read), so c allocates nothing. A non-positive pivot returns an error
// matching ErrSingular and leaves c unusable until the next Factor.
//
// Column j below the pivot is computed four rows per pass over the
// pivot row.
func (c *Cholesky) Factor(a *Dense) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: Cholesky.Factor on %dx%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	c.n, c.l = 0, nil
	l := a.Data
	for j := 0; j < n; j++ {
		rowJ := l[j*n:][:j]
		s := l[j*n+j]
		for _, ljk := range rowJ {
			s -= ljk * ljk
		}
		if !(s > 0) {
			return fmt.Errorf("linalg: Cholesky pivot %g at row %d: %w", s, j, ErrSingular)
		}
		piv := math.Sqrt(s)
		l[j*n+j] = piv
		rest := l[(j+1)*n:]
		for ; len(rest) >= 4*n; rest = rest[4*n:] {
			r0, r1 := rest[:j+1], rest[n:][:j+1]
			r2, r3 := rest[2*n:][:j+1], rest[3*n:][:j+1]
			s0, s1, s2, s3 := r0[j], r1[j], r2[j], r3[j]
			q0, q1, q2, q3 := r0[:j], r1[:j], r2[:j], r3[:j]
			for k, ljk := range rowJ {
				s0 -= q0[k] * ljk
				s1 -= q1[k] * ljk
				s2 -= q2[k] * ljk
				s3 -= q3[k] * ljk
			}
			r0[j], r1[j], r2[j], r3[j] = s0/piv, s1/piv, s2/piv, s3/piv
		}
		for ; len(rest) >= n; rest = rest[n:] {
			rowI := rest[:j+1]
			s := rowI[j]
			for k, ljk := range rowJ {
				s -= rowI[k] * ljk
			}
			rowI[j] = s / piv
		}
	}
	c.n, c.l = n, a
	return nil
}

// N returns the factored dimension.
func (c *Cholesky) N() int { return c.n }

// SolveInto solves A·x = b using the factorization. x may alias b; the
// solve is in place and allocation-free.
//
// Both sweeps take four rows per pass (the last n%4 go one at a time).
// The forward sweep keeps the four rows' sums over the rows already
// solved side by side, then finishes the four in order. The backward
// sweep reads L by rows: once x[i] is final, row i of L holds its
// coefficient in every earlier equation, and each earlier x[k] takes
// the four rows' terms in one pass, in the order i, i−1, i−2, i−3.
func (c *Cholesky) SolveInto(x, b []float64) {
	n := c.n
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("linalg: Cholesky.SolveInto n=%d len(x)=%d len(b)=%d", n, len(x), len(b)))
	}
	l := c.l.Data
	// Forward: L y = b.
	i := 0
	for ; i+4 <= n; i += 4 {
		xs := x[:i]
		r0, r1 := l[i*n:][:i+4], l[(i+1)*n:][:i+4]
		r2, r3 := l[(i+2)*n:][:i+4], l[(i+3)*n:][:i+4]
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		p0, p1, p2, p3 := r0[:i], r1[:i], r2[:i], r3[:i]
		for k, xk := range xs {
			s0 -= p0[k] * xk
			s1 -= p1[k] * xk
			s2 -= p2[k] * xk
			s3 -= p3[k] * xk
		}
		x0 := s0 / r0[i]
		s1 -= r1[i] * x0
		s2 -= r2[i] * x0
		s3 -= r3[i] * x0
		x1 := s1 / r1[i+1]
		s2 -= r2[i+1] * x1
		s3 -= r3[i+1] * x1
		x2 := s2 / r2[i+2]
		s3 -= r3[i+2] * x2
		x[i], x[i+1], x[i+2], x[i+3] = x0, x1, x2, s3/r3[i+3]
	}
	for ; i < n; i++ {
		xs, row := x[:i], l[i*n:][:i]
		s := b[i]
		for k, xk := range xs {
			s -= row[k] * xk
		}
		x[i] = s / l[i*n+i]
	}
	// Backward: Lᵀ x = y.
	i = n - 1
	for ; i >= 3; i -= 4 {
		r0, r1 := l[i*n:][:i+1], l[(i-1)*n:][:i]
		r2, r3 := l[(i-2)*n:][:i-1], l[(i-3)*n:][:i-2]
		x0 := x[i] / r0[i]
		x1 := (x[i-1] - r0[i-1]*x0) / r1[i-1]
		x2 := (x[i-2] - r0[i-2]*x0 - r1[i-2]*x1) / r2[i-2]
		x3 := (x[i-3] - r0[i-3]*x0 - r1[i-3]*x1 - r2[i-3]*x2) / r3[i-3]
		x[i], x[i-1], x[i-2], x[i-3] = x0, x1, x2, x3
		xs := x[:i-3]
		p0, p1, p2, p3 := r0[:i-3], r1[:i-3], r2[:i-3], r3[:i-3]
		for k := range xs {
			xs[k] = xs[k] - p0[k]*x0 - p1[k]*x1 - p2[k]*x2 - p3[k]*x3
		}
	}
	for ; i >= 0; i-- {
		row := l[i*n:][:i+1]
		xi := x[i] / row[i]
		x[i] = xi
		for k, lik := range row[:i] {
			x[k] -= lik * xi
		}
	}
}

// SolveBlockInto solves A·x = b for the m lane-minor right-hand sides
// in b (row stride ld), lane for lane bit-identical to SolveInto. x
// may alias b.
func (c *Cholesky) SolveBlockInto(x, b []float64, m, ld int) {
	checkBlock("Cholesky", c.n, len(x), len(b), m, ld)
	triSolveBlock(c.l.Data, c.n, c.n, x, b, m, ld)
}

// schurLower subtracts E·A⁻¹·E, E = diag(e), from the lower triangle
// and the diagonal of t, where A is the matrix c factors, using w (n·n)
// as scratch. t's strict upper triangle, which Factor never reads,
// keeps its values.
//
// Column k of A⁻¹·E is the solve of e_k·unit(k), and only its rows
// k … n−1 are needed. The columns are solved eight at a time, and a
// group whose first column is r solves rows r … n−1 only: that is the
// block solve by the trailing factor L[r:, r:]. Above row r the
// group's right-hand sides are zero, so are its forward iterates, and
// the full solve subtracts their products with L[i][k<r] as exact
// zeros. Every kept entry is therefore bit for bit what
// SolveBlockInto gives it, for about a third of the work.
func (c *Cholesky) schurLower(t *Dense, e, w []float64) {
	n := c.n
	Fill(w, 0)
	for k, ek := range e {
		w[k*n+k] = ek
	}
	for r := 0; r < n; r += 8 {
		sub := r*n + r
		triSolveBlock(c.l.Data[sub:], n, n-r, w[sub:], w[sub:], min(8, n-r), n)
	}
	for j, ej := range e {
		row, col := t.Data[j*n:j*n+j+1], w[j*n:j*n+j+1]
		for k := range row {
			row[k] -= ej * col[k]
		}
	}
}

// triSolveBlock solves L·Lᵀ·x = b for the m lane-minor right-hand
// sides in b (row stride ld), where L is the n×n lower triangle stored
// at l with row stride ldl, lane for lane bit-identical to
// Cholesky.SolveInto. x may alias b.
//
// Both sweeps keep eight lanes' running sums in registers (then four,
// then one) while they walk the factor. The backward sweep takes
// SolveInto's updates to x[k] as one running sum over i = n−1 … k+1,
// which is the order SolveInto applies them in.
func triSolveBlock(l []float64, ldl, n int, x, b []float64, m, ld int) {
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		row := l[i*ldl : i*ldl+i+1]
		piv := row[i]
		r := 0
		for ; r+8 <= m; r += 8 {
			bi := b[i*ld+r : i*ld+r+8]
			s0, s1, s2, s3, s4, s5, s6, s7 := bi[0], bi[1], bi[2], bi[3], bi[4], bi[5], bi[6], bi[7]
			for k, lik := range row[:i] {
				xk := x[k*ld+r : k*ld+r+8]
				s0 -= lik * xk[0]
				s1 -= lik * xk[1]
				s2 -= lik * xk[2]
				s3 -= lik * xk[3]
				s4 -= lik * xk[4]
				s5 -= lik * xk[5]
				s6 -= lik * xk[6]
				s7 -= lik * xk[7]
			}
			xi := x[i*ld+r : i*ld+r+8]
			xi[0], xi[1], xi[2], xi[3] = s0/piv, s1/piv, s2/piv, s3/piv
			xi[4], xi[5], xi[6], xi[7] = s4/piv, s5/piv, s6/piv, s7/piv
		}
		for ; r+4 <= m; r += 4 {
			bi := b[i*ld+r : i*ld+r+4]
			s0, s1, s2, s3 := bi[0], bi[1], bi[2], bi[3]
			for k, lik := range row[:i] {
				xk := x[k*ld+r : k*ld+r+4]
				s0 -= lik * xk[0]
				s1 -= lik * xk[1]
				s2 -= lik * xk[2]
				s3 -= lik * xk[3]
			}
			xi := x[i*ld+r : i*ld+r+4]
			xi[0], xi[1], xi[2], xi[3] = s0/piv, s1/piv, s2/piv, s3/piv
		}
		for ; r < m; r++ {
			s := b[i*ld+r]
			for k, lik := range row[:i] {
				s -= lik * x[k*ld+r]
			}
			x[i*ld+r] = s / piv
		}
	}
	// Backward: Lᵀ x = y.
	for k := n - 1; k >= 0; k-- {
		piv := l[k*ldl+k]
		r := 0
		for ; r+8 <= m; r += 8 {
			xk := x[k*ld+r : k*ld+r+8]
			s0, s1, s2, s3, s4, s5, s6, s7 := xk[0], xk[1], xk[2], xk[3], xk[4], xk[5], xk[6], xk[7]
			for i := n - 1; i > k; i-- {
				lik := l[i*ldl+k]
				xi := x[i*ld+r : i*ld+r+8]
				s0 -= lik * xi[0]
				s1 -= lik * xi[1]
				s2 -= lik * xi[2]
				s3 -= lik * xi[3]
				s4 -= lik * xi[4]
				s5 -= lik * xi[5]
				s6 -= lik * xi[6]
				s7 -= lik * xi[7]
			}
			xk[0], xk[1], xk[2], xk[3] = s0/piv, s1/piv, s2/piv, s3/piv
			xk[4], xk[5], xk[6], xk[7] = s4/piv, s5/piv, s6/piv, s7/piv
		}
		for ; r+4 <= m; r += 4 {
			xk := x[k*ld+r : k*ld+r+4]
			s0, s1, s2, s3 := xk[0], xk[1], xk[2], xk[3]
			for i := n - 1; i > k; i-- {
				lik := l[i*ldl+k]
				xi := x[i*ld+r : i*ld+r+4]
				s0 -= lik * xi[0]
				s1 -= lik * xi[1]
				s2 -= lik * xi[2]
				s3 -= lik * xi[3]
			}
			xk[0], xk[1], xk[2], xk[3] = s0/piv, s1/piv, s2/piv, s3/piv
		}
	}
	// The last m%4 lanes run the one-row-at-a-time backward loop, which
	// reads L by rows.
	for r := m - m%4; r < m; r++ {
		for i := n - 1; i >= 0; i-- {
			row := l[i*ldl : i*ldl+i+1]
			xi := x[i*ld+r] / row[i]
			x[i*ld+r] = xi
			for k, lik := range row[:i] {
				x[k*ld+r] -= lik * xi
			}
		}
	}
}

// BlockTridiag is the block-LDLᵀ factorization of a symmetric block
// tridiagonal matrix whose off-diagonal blocks are diagonal — exactly
// the structure the crossbar's bit-line levels expose after the
// word-line chains are eliminated. Diagonal blocks are dense bs×bs;
// the block between levels i and i+1 is diag(off[i]). The zero value
// is an empty factor ready for Factor.
type BlockTridiag struct {
	levels, bs int
	chol       []Cholesky  // factored Schur complements, one per level
	off        [][]float64 // diagonal off-blocks (copied), length levels-1
	work       []float64   // bs×bs Schur columns T_{i-1}⁻¹·diag(e)
}

// Factor factors the block tridiagonal matrix with the given dense
// diagonal blocks (each bs×bs) and diagonal off-blocks (each length
// bs, levels-1 of them) into f, reusing f's storage when its shape
// matches, so a refactor of the same shape allocates nothing. It takes
// ownership of the diag blocks — their storage is overwritten with
// factor data, and only their lower triangles are read — and copies
// off. The matrix must be positive definite; otherwise Factor returns
// an error and f is unusable until the next Factor.
//
// Each level's Schur update T_i = D_i − E·T_{i-1}⁻¹·E, E = diag(e),
// reduces only the lower triangle of D_i, the part Cholesky.Factor
// reads, and so solves for T_{i-1}⁻¹·E at and below its diagonal
// only, a group of columns at a time (Cholesky.schurLower). Each entry
// is the one the one-vector solve of e[k]·unit(k) gives, bit for bit.
func (f *BlockTridiag) Factor(diag []*Dense, off [][]float64) error {
	levels := len(diag)
	if levels == 0 {
		panic("linalg: BlockTridiag.Factor with no blocks")
	}
	bs := diag[0].Rows
	if len(off) != levels-1 {
		panic(fmt.Sprintf("linalg: BlockTridiag.Factor levels=%d len(off)=%d", levels, len(off)))
	}
	if f.levels != levels || f.bs != bs {
		f.levels, f.bs = levels, bs
		f.chol = make([]Cholesky, levels)
		f.off = make([][]float64, levels-1)
		for i := range f.off {
			f.off[i] = make([]float64, bs)
		}
		f.work = make([]float64, bs*bs)
	}
	for i := 0; i < levels; i++ {
		t := diag[i]
		if t.Rows != bs || t.Cols != bs {
			panic(fmt.Sprintf("linalg: BlockTridiag.Factor block %d is %dx%d, want %dx%d", i, t.Rows, t.Cols, bs, bs))
		}
		if i > 0 {
			e := off[i-1]
			if len(e) != bs {
				panic(fmt.Sprintf("linalg: BlockTridiag.Factor off-block %d has length %d, want %d", i-1, len(e), bs))
			}
			copy(f.off[i-1], e)
			f.chol[i-1].schurLower(t, e, f.work)
		}
		if err := f.chol[i].Factor(t); err != nil {
			return fmt.Errorf("linalg: block tridiagonal level %d: %w", i, err)
		}
	}
	return nil
}

// N returns the factored dimension levels·bs.
func (f *BlockTridiag) N() int { return f.levels * f.bs }

// BlockSize returns the per-level block dimension.
func (f *BlockTridiag) BlockSize() int { return f.bs }

// SolveInto solves the factored system into x (length levels·bs),
// using tmp (length ≥ bs) as scratch. x may alias b; the solve is in
// place and allocation-free, so a shared factor can serve concurrent
// callers that bring their own tmp.
func (f *BlockTridiag) SolveInto(x, b, tmp []float64) {
	n := f.N()
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("linalg: BlockTridiag.SolveInto n=%d len(x)=%d len(b)=%d", n, len(x), len(b)))
	}
	if len(tmp) < f.bs {
		panic(fmt.Sprintf("linalg: BlockTridiag.SolveInto scratch %d < block size %d", len(tmp), f.bs))
	}
	tmp = tmp[:f.bs]
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Forward block elimination: u_i = b_i − E_{i-1}·T_{i-1}⁻¹·u_{i-1}.
	for i := 1; i < f.levels; i++ {
		prev := x[(i-1)*f.bs : i*f.bs]
		cur := x[i*f.bs : (i+1)*f.bs]
		f.chol[i-1].SolveInto(tmp, prev)
		e := f.off[i-1]
		for j := 0; j < f.bs; j++ {
			cur[j] -= e[j] * tmp[j]
		}
	}
	// Backward substitution: x_i = T_i⁻¹·(u_i − E_i·x_{i+1}).
	last := x[(f.levels-1)*f.bs:]
	f.chol[f.levels-1].SolveInto(last, last)
	for i := f.levels - 2; i >= 0; i-- {
		cur := x[i*f.bs : (i+1)*f.bs]
		next := x[(i+1)*f.bs : (i+2)*f.bs]
		e := f.off[i]
		for j := 0; j < f.bs; j++ {
			cur[j] -= e[j] * next[j]
		}
		f.chol[i].SolveInto(cur, cur)
	}
}

// SolveBlockInto solves the factored system for the m lane-minor
// right-hand sides in b (row stride ld) into x, lane for lane
// bit-identical to SolveInto, using tmp (bs rows of stride ld) as
// scratch. x may alias b.
func (f *BlockTridiag) SolveBlockInto(x, b, tmp []float64, m, ld int) {
	bs := f.bs
	n := f.N()
	checkBlock("BlockTridiag", n, len(x), len(b), m, ld)
	checkBlock("BlockTridiag", bs, len(tmp), len(tmp), m, ld)
	for j := 0; j < n; j++ {
		copy(x[j*ld:j*ld+m], b[j*ld:j*ld+m])
	}
	lv := bs * ld // stride between levels
	// Forward block elimination: u_i = b_i − E_{i-1}·T_{i-1}⁻¹·u_{i-1}.
	for i := 1; i < f.levels; i++ {
		f.chol[i-1].SolveBlockInto(tmp, x[(i-1)*lv:], m, ld)
		for j, e := range f.off[i-1] {
			c, t := x[i*lv+j*ld:i*lv+j*ld+m], tmp[j*ld:j*ld+m]
			for r := range c {
				c[r] -= e * t[r]
			}
		}
	}
	// Backward substitution: x_i = T_i⁻¹·(u_i − E_i·x_{i+1}).
	last := x[(f.levels-1)*lv:]
	f.chol[f.levels-1].SolveBlockInto(last, last, m, ld)
	for i := f.levels - 2; i >= 0; i-- {
		for j, e := range f.off[i] {
			c, nx := x[i*lv+j*ld:i*lv+j*ld+m], x[(i+1)*lv+j*ld:(i+1)*lv+j*ld+m]
			for r := range c {
				c[r] -= e * nx[r]
			}
		}
		f.chol[i].SolveBlockInto(x[i*lv:], x[i*lv:], m, ld)
	}
}
