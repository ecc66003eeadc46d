package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without meeting its tolerance.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// ErrBreakdown is the sentinel matched by errors.Is when conjugate
// gradients hits a non-SPD direction (pᵀAp ≤ 0 or NaN) and cannot
// continue. The concrete error is a *BreakdownError carrying the
// offending iteration and curvature.
var ErrBreakdown = errors.New("linalg: CG breakdown")

// BreakdownError reports the exact point at which CG broke down.
type BreakdownError struct {
	// Iteration is the CG iteration (1-based) that failed.
	Iteration int
	// PAP is the offending curvature pᵀAp: non-positive or NaN means
	// the matrix is not symmetric positive definite (or has been
	// poisoned by NaN values).
	PAP float64
}

// Error implements error.
func (e *BreakdownError) Error() string {
	return fmt.Sprintf("linalg: CG breakdown at iteration %d (pᵀAp=%g); matrix not SPD?", e.Iteration, e.PAP)
}

// Is reports sentinel identity so errors.Is(err, ErrBreakdown) works.
func (e *BreakdownError) Is(target error) bool { return target == ErrBreakdown }

// CGOptions controls the conjugate gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖b−Ax‖/‖b‖. Defaults to
	// 1e-10 if zero.
	Tol float64
	// MaxIter caps the iteration count. Defaults to 4·n if zero.
	MaxIter int
}

// CGStats describes how a CG solve went, whether or not it succeeded.
// Callers building recovery ladders need more than a bare iteration
// count: the final residual tells them how far off a failed solve was,
// and Breakdown distinguishes "ran out of budget" from "cannot
// continue".
type CGStats struct {
	// Iterations is the number of CG iterations performed.
	Iterations int
	// RelResidual is the final relative residual ‖b−Ax‖/‖b‖ (0 when
	// b = 0).
	RelResidual float64
	// Converged reports whether the tolerance was met.
	Converged bool
	// Breakdown is a short reason string when the SPD guard tripped
	// ("" otherwise); the returned error carries the same information
	// as a *BreakdownError.
	Breakdown string
}

// CGWorkspace holds the scratch vectors for repeated CG solves of the
// same dimension, so the Newton loop allocates nothing per iteration.
type CGWorkspace struct {
	r, z, p, ap, diag []float64
}

// NewCGWorkspace allocates scratch space for n-dimensional solves.
func NewCGWorkspace(n int) *CGWorkspace {
	return &CGWorkspace{
		r:    make([]float64, n),
		z:    make([]float64, n),
		p:    make([]float64, n),
		ap:   make([]float64, n),
		diag: make([]float64, n),
	}
}

// SolveCG solves A·x = b for symmetric positive definite A using
// Jacobi-preconditioned conjugate gradients. x is used as the initial
// guess and overwritten with the solution. The returned CGStats is
// populated on every path, including failures; the error is
// ErrNoConvergence when the budget runs out and a *BreakdownError
// (matching ErrBreakdown) when a non-SPD direction is encountered.
func SolveCG(a *CSR, b, x []float64, ws *CGWorkspace, opt CGOptions) (CGStats, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveCG dims n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	if ws == nil {
		ws = NewCGWorkspace(n)
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 4 * n
	}

	// Jacobi preconditioner: the inverse diagonal.
	inv := ws.diag
	a.Diag(inv)
	for i, d := range inv {
		if d == 0 {
			inv[i] = 1 // degenerate row: fall back to identity preconditioning
		} else {
			inv[i] = 1 / d
		}
	}
	applyPrecond := func() {
		for i := range ws.z {
			ws.z[i] = inv[i] * ws.r[i]
		}
	}

	// r = b − A·x
	a.MulVec(x, ws.r)
	for i := range ws.r {
		ws.r[i] = b[i] - ws.r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		// x = 0 is the exact solution.
		Fill(x, 0)
		return CGStats{Converged: true}, nil
	}
	rel := Norm2(ws.r) / bnorm
	if rel <= tol {
		return CGStats{RelResidual: rel, Converged: true}, nil
	}

	applyPrecond()
	copy(ws.p, ws.z)
	rz := Dot(ws.r, ws.z)

	for k := 1; k <= maxIter; k++ {
		a.MulVec(ws.p, ws.ap)
		pap := Dot(ws.p, ws.ap)
		if pap <= 0 || math.IsNaN(pap) {
			err := &BreakdownError{Iteration: k, PAP: pap}
			return CGStats{
				Iterations:  k,
				RelResidual: Norm2(ws.r) / bnorm,
				Breakdown:   fmt.Sprintf("pᵀAp=%g", pap),
			}, err
		}
		alpha := rz / pap
		Axpy(alpha, ws.p, x)
		Axpy(-alpha, ws.ap, ws.r)
		if rel = Norm2(ws.r) / bnorm; rel <= tol {
			return CGStats{Iterations: k, RelResidual: rel, Converged: true}, nil
		}
		applyPrecond()
		rzNew := Dot(ws.r, ws.z)
		beta := rzNew / rz
		rz = rzNew
		for i := range ws.p {
			ws.p[i] = ws.z[i] + beta*ws.p[i]
		}
	}
	return CGStats{Iterations: maxIter, RelResidual: rel}, ErrNoConvergence
}
