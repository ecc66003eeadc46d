package xbar

import (
	"geniex/internal/linalg"
)

// opFactor is the direct factorization of the MNA Jacobian for one set
// of per-cell device conductances. At any iterate the Jacobian has the
// same structure — only the selector and cell conductances change —
// and it factors exactly along the netlist:
//
//  1. Every mid node sits between exactly two elements (selector and
//     cell), so it eliminates in closed form, leaving the series
//     conductance gs = gsel·gcell/(gsel+gcell) between its row and
//     column node.
//  2. Each word line is then a tridiagonal chain over its row nodes,
//     coupled to the column nodes only through diag(gs) — eliminating
//     it is one LDLᵀ per row.
//  3. What remains is a symmetric block tridiagonal system over the
//     bit-line levels: dense Cols×Cols Schur-complement blocks per
//     word-line level, −gw·I between adjacent levels.
//
// Factoring costs O(Rows·Cols³); each solve is O(Rows·Cols²) of pure
// back-substitution. An opFactor owns all of its storage, conductances
// included, and build refactors it in place, so a crossbar that keeps
// one allocates it once. Between builds it is read-only and safe to
// share — per-instance scratch lives in factorScratch — and a shared
// factor is never rebuilt: whoever shares it gives up its storage (see
// Crossbar.shareFactor).
//
// Every rung solves through it. The zero-bias factor J₀ (every device
// at 0 V) is built once per Program and shared by a BatchSolver pool;
// the seeded rung 0 solves it for the seed (the first cold Newton
// iterate, computed directly) and iterates the chord v ← v − J₀⁻¹·F(v)
// on it. The Newton rungs factor J(v) at each iterate from the
// differential conductances kcl records and take v ← v − J(v)⁻¹·F(v).
type opFactor struct {
	rows, cols int
	gsrc       float64
	gsel       []float64 // per-cell selector conductance, row-major
	gcell      []float64 // per-cell RRAM conductance, row-major
	gs         []float64 // per-cell series conductance, row-major

	rowTri []linalg.Tridiag    // word-line chain factors, one per row
	col    linalg.BlockTridiag // bit-line level system factor

	// Build storage: the per-level Schur blocks the column factor takes
	// over and its off-blocks, one word-line chain's diagonal and
	// off-diagonal, and that chain's Schur columns.
	blocks    []*linalg.Dense
	offBlocks [][]float64 // Rows−1 levels of −gw
	diag      []float64   // Cols
	wire      []float64   // Cols−1 of −gw
	work      []float64   // Cols×Cols: A_i⁻¹·diag(gs_i)
}

// factorScratch is the per-Crossbar workspace for opFactor solves. The
// factor itself is shared and read-only; every instance brings its
// own scratch.
type factorScratch struct {
	b   []float64 // full 3·R·C right-hand side for seed solves
	y   []float64 // per-row tridiagonal solve buffer (Cols)
	tmp []float64 // block-tridiagonal solve scratch (Cols)
}

func newFactorScratch(cfg Config) *factorScratch {
	return &factorScratch{
		b:   make([]float64, 3*cfg.Rows*cfg.Cols),
		y:   make([]float64, cfg.Cols),
		tmp: make([]float64, cfg.Cols),
	}
}

// newOpFactor allocates the storage of a factor for cfg's dimensions.
// Fill gsel and gcell, then build.
func newOpFactor(cfg Config) *opFactor {
	R, C := cfg.Rows, cfg.Cols
	f := &opFactor{
		rows:      R,
		cols:      C,
		gsrc:      1 / cfg.Rsource,
		gsel:      make([]float64, R*C),
		gcell:     make([]float64, R*C),
		gs:        make([]float64, R*C),
		rowTri:    make([]linalg.Tridiag, R),
		blocks:    make([]*linalg.Dense, R),
		offBlocks: make([][]float64, max(R-1, 0)),
		diag:      make([]float64, C),
		wire:      make([]float64, max(C-1, 0)),
		work:      make([]float64, C*C),
	}
	for i := range f.blocks {
		f.blocks[i] = linalg.NewDense(C, C)
	}
	gw := 1 / cfg.Rwire
	linalg.Fill(f.wire, -gw)
	for i := range f.offBlocks {
		f.offBlocks[i] = make([]float64, C)
		linalg.Fill(f.offBlocks[i], -gw)
	}
	return f
}

// zeroBiasFactor factors J₀, the Jacobian with every device at 0 V,
// for the current programming into f.
func (x *Crossbar) zeroBiasFactor(f *opFactor) error {
	for k, cell := range x.cell {
		_, f.gsel[k], _, f.gcell[k] = x.devices(cell, 0, 0)
	}
	return f.build(x.cfg)
}

// build factors, into f's storage, the MNA Jacobian whose cell k has
// selector conductance f.gsel[k] and RRAM conductance f.gcell[k]
// (row-major). It allocates nothing. It fails on a
// non-positive-definite reduction (a NaN conductance, or a cell whose
// selector and RRAM both conduct nothing), which callers treat as a
// failed rung; f then solves nothing until the next successful build.
func (f *opFactor) build(cfg Config) error {
	R, C := cfg.Rows, cfg.Cols
	gw := 1 / cfg.Rwire
	for k, gc := range f.gcell {
		f.gs[k] = f.gsel[k] * gc / (f.gsel[k] + gc)
	}

	// Word-line chains: tridiagonal over the row nodes of each row.
	diag := f.diag
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			deg := 0
			if j > 0 {
				deg++
			}
			if j+1 < C {
				deg++
			}
			diag[j] = gw*float64(deg) + f.gs[i*C+j]
			if j == 0 {
				diag[j] += f.gsrc
			}
		}
		if err := f.rowTri[i].Factor(diag, f.wire); err != nil {
			return err
		}
	}

	// Bit-line levels: dense Schur-complement blocks
	// D_i = diag(cdiag_i) − diag(gs_i)·A_i⁻¹·diag(gs_i), with −gw·I
	// between adjacent levels. One block solve gives all C columns of
	// A_i⁻¹·diag(gs_i): lane k is the one-vector solve of gs_ik·unit(k),
	// bit for bit.
	gsnk := 1 / cfg.Rsink
	w := f.work
	for i := 0; i < R; i++ {
		d := f.blocks[i]
		linalg.Fill(d.Data, 0)
		for j := 0; j < C; j++ {
			deg := 0
			if i > 0 {
				deg++
			}
			if i+1 < R {
				deg++
			}
			cd := gw*float64(deg) + f.gs[i*C+j]
			if i == R-1 {
				cd += gsnk
			}
			d.Set(j, j, cd)
		}
		gs := f.gs[i*C : (i+1)*C]
		linalg.Fill(w, 0)
		for k, g := range gs {
			w[k*C+k] = g
		}
		f.rowTri[i].SolveBlockInto(w, w, C, C)
		for j, g := range gs {
			row, col := d.Data[j*C:(j+1)*C], w[j*C:(j+1)*C]
			for k := range row {
				row[k] -= g * col[k]
			}
		}
	}
	return f.col.Factor(f.blocks, f.offBlocks)
}

// solveInto solves J·out = b for the full 3·R·C node vector, where J
// is the factored Jacobian. out may alias b. Allocation-free; safe for
// concurrent use with distinct scratch.
func (f *opFactor) solveInto(out, b []float64, ws *factorScratch) {
	R, C := f.rows, f.cols
	RC := R * C
	// Mid-node reduction: vm = (b_m + gsel·vr + gcell·vc)/(gsel+gcell)
	// folds b_m into the row and column right-hand sides.
	for k := 0; k < RC; k++ {
		gt := f.gsel[k] + f.gcell[k]
		bm := b[RC+k]
		out[k] = b[k] + f.gsel[k]/gt*bm
		out[2*RC+k] = b[2*RC+k] + f.gcell[k]/gt*bm
		out[RC+k] = bm
	}
	// Row elimination: fold A_i⁻¹·br_i into the column rhs.
	for i := 0; i < R; i++ {
		f.rowTri[i].SolveInto(ws.y, out[i*C:(i+1)*C])
		bc := out[2*RC+i*C : 2*RC+(i+1)*C]
		for j := 0; j < C; j++ {
			bc[j] += f.gs[i*C+j] * ws.y[j]
		}
	}
	// Bit-line block solve, in place.
	vc := out[2*RC : 3*RC]
	f.col.SolveInto(vc, vc, ws.tmp)
	// Back-substitute the row nodes: vr_i = A_i⁻¹(br_i + gs_i∘vc_i).
	for i := 0; i < R; i++ {
		vr := out[i*C : (i+1)*C]
		for j := 0; j < C; j++ {
			ws.y[j] = vr[j] + f.gs[i*C+j]*vc[i*C+j]
		}
		f.rowTri[i].SolveInto(vr, ws.y)
	}
	// Recover the mid nodes.
	for k := 0; k < RC; k++ {
		gt := f.gsel[k] + f.gcell[k]
		out[RC+k] = (out[RC+k] + f.gsel[k]*out[k] + f.gcell[k]*out[2*RC+k]) / gt
	}
}

// solveBlockInto is solveInto for the m lane-minor node vectors in b
// (node n of lane r at b[n*ld+r]; see linalg's block forms), one pass
// over the factor for all of them. Every lane goes through solveInto's
// operations in solveInto's order, so it is bit-identical to solving
// that vector alone. out may alias b.
func (f *opFactor) solveBlockInto(out, b []float64, m, ld int, ws *blockScratch) {
	R, C := f.rows, f.cols
	RC := R * C
	// lanes returns node n's m lanes of v.
	lanes := func(v []float64, n int) []float64 { return v[n*ld : n*ld+m] }
	for k := 0; k < RC; k++ {
		gsel := f.gsel[k]
		gt := gsel + f.gcell[k]
		cr, cc := gsel/gt, f.gcell[k]/gt
		br, bm, bc := lanes(b, k), lanes(b, RC+k), lanes(b, 2*RC+k)
		or, om, oc := lanes(out, k), lanes(out, RC+k), lanes(out, 2*RC+k)
		for r := range om {
			bmr := bm[r]
			or[r] = br[r] + cr*bmr
			oc[r] = bc[r] + cc*bmr
			om[r] = bmr
		}
	}
	y := ws.y[:C*ld]
	for i := 0; i < R; i++ {
		f.rowTri[i].SolveBlockInto(y, out[i*C*ld:], m, ld)
		for j := 0; j < C; j++ {
			g, yj, bc := f.gs[i*C+j], lanes(y, j), lanes(out, 2*RC+i*C+j)
			for r := range bc {
				bc[r] += g * yj[r]
			}
		}
	}
	vc := out[2*RC*ld:]
	f.col.SolveBlockInto(vc, vc, ws.tmp, m, ld)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			g, yj, vr, vcj := f.gs[i*C+j], lanes(y, j), lanes(out, i*C+j), lanes(out, 2*RC+i*C+j)
			for r := range yj {
				yj[r] = vr[r] + g*vcj[r]
			}
		}
		f.rowTri[i].SolveBlockInto(out[i*C*ld:], y, m, ld)
	}
	for k := 0; k < RC; k++ {
		gsel, gc := f.gsel[k], f.gcell[k]
		gt := gsel + gc
		vr, vm, vcn := lanes(out, k), lanes(out, RC+k), lanes(out, 2*RC+k)
		for r := range vm {
			vm[r] = (vm[r] + gsel*vr[r] + gc*vcn[r]) / gt
		}
	}
}

// seedInto writes the Newton seed for drive vector v into volt,
// solving through the zero-bias factor J₀: the solution of the
// linearized network, whose only source injections are the Norton
// drive currents gsrc·v_i at each row head. Because every device law
// has I(0) = 0, the companion sources vanish at the zero state, making
// this exactly the first cold Newton iterate.
func (f *opFactor) seedInto(volt, v []float64, ws *factorScratch) {
	linalg.Fill(ws.b, 0)
	for i := 0; i < f.rows; i++ {
		ws.b[i*f.cols] = f.gsrc * v[i]
	}
	f.solveInto(volt, ws.b, ws)
}
