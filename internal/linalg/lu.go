package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by the dense LU factorization when a pivot
// underflows, meaning the matrix is singular to working precision.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNoConvergence is the sentinel an iterative solver's error matches
// when its iteration exhausts its budget without meeting its
// tolerance; the circuit solver's divergence errors match it.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// LU is a dense LU factorization with partial pivoting, PA = LU.
// It is intended for the small dense systems that appear in tests and
// in the analytical crossbar model; the circuit solver itself uses the
// structured factorizations in factor.go.
type LU struct {
	n    int
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the pivoted LU factorization of a square matrix.
// The input is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: FactorLU of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	f := &LU{n: n, lu: a.Clone(), piv: make([]int, n), sign: 1}
	for i := range f.piv {
		f.piv[i] = i
	}
	m := f.lu
	for k := 0; k < n; k++ {
		// Find pivot.
		p, best := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := m.Row(k), m.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := m.At(k, k)
		for i := k + 1; i < n; i++ {
			l := m.At(i, k) / pivot
			m.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri, rk := m.Row(i), m.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return f, nil
}

// Solve returns x such that A·x = b.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic(fmt.Sprintf("linalg: LU.Solve dim %d for n=%d", len(b), f.n))
	}
	x := make([]float64, f.n)
	for i := 0; i < f.n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < f.n; i++ {
		row := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveDense is a convenience wrapper: factorize a and solve for b.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
