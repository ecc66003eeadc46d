package xbar

import (
	"fmt"
	"math"

	"geniex/internal/device"
	"geniex/internal/linalg"
)

// Crossbar is a programmed crossbar instance ready to solve MVMs at
// circuit level. It is not safe for concurrent use; use BatchSolve for
// parallel workloads (it clones per worker).
type Crossbar struct {
	cfg Config
	g   *linalg.Dense // programmed low-bias conductances, Rows×Cols

	sel  device.Element   // access device, shared by all cells
	cell []device.Element // RRAM per cell, row-major

	// The Newton rungs' Jacobian: coords holds every stamp in the
	// fixed order pattern was built from. The wire, source and sink
	// stamps never change; kcl rewrites the device stamps, which start
	// at devOff, eight per cell.
	pattern *linalg.Pattern
	coords  []linalg.Coord
	devOff  int
	ws      *linalg.CGWorkspace
	volt    []float64 // node voltages; the iterate
	rhs     []float64 // drive injection plus companion sources (Newton rungs)
	delta   []float64
	prev    []float64 // iterate before the last Newton update
	step    []float64 // last full Newton step (for damped backtracking)
	res     []float64 // KCL violation F at volt
	best    []float64 // lowest-residual iterate (best-effort reporting)
	sol     Solution  // the batch path's reused result

	// iteration controls
	maxNewton int
	tolV      float64

	// Per-programming factorization cache (see factor.go). fact is
	// built lazily on the first non-cold solve after a Program and
	// invalidated by the next one; factScr is this instance's scratch.
	fact    *opFactor
	factScr *factorScratch
	factErr bool // factor build failed; cold-start until reprogrammed

	// faults is the active test-only fault-injection plan (usually nil).
	faults *FaultPlan
}

// Node numbering: for cell (i, j) in a Rows×Cols array,
//
//	row node  r(i,j) = i·Cols + j        (word-line segment)
//	mid node  m(i,j) = NM + i·Cols + j   (between selector and RRAM)
//	col node  c(i,j) = 2NM + i·Cols + j  (bit-line segment)
//
// The word-line driver connects through Rsource to r(i,0); bit lines
// are sensed at virtual ground through Rsink below c(Rows-1,j).
func (x *Crossbar) rNode(i, j int) int { return i*x.cfg.Cols + j }
func (x *Crossbar) mNode(i, j int) int {
	return x.cfg.Rows*x.cfg.Cols + i*x.cfg.Cols + j
}
func (x *Crossbar) cNode(i, j int) int {
	return 2*x.cfg.Rows*x.cfg.Cols + i*x.cfg.Cols + j
}
func (x *Crossbar) numNodes() int { return 3 * x.cfg.Rows * x.cfg.Cols }

// New creates a crossbar for the given design point with every cell
// programmed to Goff. Call Program to load a conductance matrix.
func New(cfg Config) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := &Crossbar{
		cfg:       cfg,
		sel:       newSelector(cfg),
		maxNewton: defaultMaxNewton,
		tolV:      1e-10,
	}
	x.setFaults(cfg.faults)
	n := x.numNodes()
	x.ws = linalg.NewCGWorkspace(n)
	x.volt = make([]float64, n)
	x.rhs = make([]float64, n)
	x.delta = make([]float64, n)
	x.prev = make([]float64, n)
	x.step = make([]float64, n)
	x.res = make([]float64, n)
	x.best = make([]float64, n)

	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	linalg.Fill(g.Data, cfg.Goff())
	if err := x.Program(g); err != nil {
		return nil, err
	}
	// Freeze the sparsity pattern once; Newton updates only rewrite
	// device values.
	x.buildCoords()
	x.pattern = linalg.NewPattern(n, x.coords)
	return x, nil
}

func newSelector(cfg Config) device.Element {
	gon := cfg.SelectorGonFactor / cfg.Ron
	if cfg.NonLinear {
		return device.NewSelector(gon, cfg.SelectorVsat)
	}
	return device.NewLinear(gon)
}

// Config returns the design point of this crossbar.
func (x *Crossbar) Config() Config { return x.cfg }

// Program loads a conductance matrix (siemens). Values must lie within
// [Goff, Gon] up to a small tolerance; out-of-window values are an
// error rather than silently clamped, since they indicate a bug in the
// caller's weight mapping.
//
// Programming is calibrated the way closed-loop write-verify hardware
// does it: the stored RRAM state is chosen so that the series
// combination of access device and RRAM has the target low-bias
// conductance. Without this, the access device's on-resistance would
// shift every weight systematically, which a real programming loop
// compensates for.
func (x *Crossbar) Program(g *linalg.Dense) error {
	if g.Rows != x.cfg.Rows || g.Cols != x.cfg.Cols {
		return fmt.Errorf("xbar: Program with %dx%d matrix on %dx%d crossbar",
			g.Rows, g.Cols, x.cfg.Rows, x.cfg.Cols)
	}
	prog := g.Clone()
	// Conductance-level faults (stuck cells) apply to the programmed
	// copy: the caller's intended matrix is untouched, but the array —
	// and everything solved on it — sees the faulted values.
	if _, err := x.faults.applyStuck(prog, x.cfg); err != nil {
		return err
	}
	lo, hi := x.cfg.Goff(), x.cfg.Gon()
	slack := 1e-9 * hi
	gsel := x.cfg.SelectorGonFactor / x.cfg.Ron
	cells := make([]device.Element, len(prog.Data))
	for idx, gv := range prog.Data {
		if gv < lo-slack || gv > hi+slack {
			return fmt.Errorf("xbar: conductance %g outside window [%g, %g] at cell %d", gv, lo, hi, idx)
		}
		// Series calibration: 1/gCell = 1/gv − 1/gsel. The selector is
		// SelectorGonFactor× more conductive than Gon, so gCell stays
		// positive by construction.
		gCell := 1 / (1/gv - 1/gsel)
		if x.cfg.NonLinear {
			cells[idx] = device.NewRRAM(gCell, x.cfg.RRAM)
		} else {
			cells[idx] = device.NewLinear(gCell)
		}
	}
	x.g = prog
	x.cell = cells
	// Reprogramming (including FaultPlan stuck-at application and
	// nonideal re-lowering, which both arrive through Program)
	// invalidates the operating-point factorization.
	if x.fact != nil {
		x.fact = nil
		mFactorInvalidations.Inc()
	}
	x.factErr = false
	return nil
}

// ensureFactor returns the cached operating-point factorization,
// building it on first use after a Program. It returns nil when the
// configuration forbids it (StartCold) or when a build failed — the
// caller then falls back to the legacy cold start.
func (x *Crossbar) ensureFactor() *opFactor {
	if x.cfg.Start == StartCold || x.factErr {
		return nil
	}
	if x.fact == nil {
		f, err := x.buildFactor()
		if err != nil {
			x.factErr = true
			return nil
		}
		x.adoptFactor(f)
		mFactorBuilds.Inc()
	}
	return x.fact
}

// adoptFactor installs a factorization — built here or shared by a
// BatchSolver pool — with this instance's own scratch.
func (x *Crossbar) adoptFactor(f *opFactor) {
	x.fact = f
	if x.factScr == nil {
		x.factScr = newFactorScratch(x.cfg)
	}
}

// Conductances returns a copy of the programmed conductance matrix.
func (x *Crossbar) Conductances() *linalg.Dense { return x.g.Clone() }

// buildCoords lays out the MNA stamp triplets in a fixed order: the
// word-line and bit-line wire segments, the source and sink
// resistances — constant conductances — then eight device entries per
// cell, selector (row–mid) before RRAM (mid–column), whose values kcl
// writes at each Newton iterate.
func (x *Crossbar) buildCoords() {
	cfg := x.cfg
	x.coords = x.coords[:0]
	stamp2 := func(g float64, an, bn int) {
		x.coords = append(x.coords,
			linalg.Coord{Row: an, Col: an, Val: g},
			linalg.Coord{Row: bn, Col: bn, Val: g},
			linalg.Coord{Row: an, Col: bn, Val: -g},
			linalg.Coord{Row: bn, Col: an, Val: -g},
		)
	}
	gw := 1 / cfg.Rwire
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j+1 < cfg.Cols; j++ {
			stamp2(gw, x.rNode(i, j), x.rNode(i, j+1))
		}
	}
	for j := 0; j < cfg.Cols; j++ {
		for i := 0; i+1 < cfg.Rows; i++ {
			stamp2(gw, x.cNode(i, j), x.cNode(i+1, j))
		}
	}
	// The word-line driver is a Norton source: gsrc on the diagonal,
	// gsrc·v_i injected at the row head. Bit lines sink to virtual
	// ground through Rsink.
	for i := 0; i < cfg.Rows; i++ {
		n := x.rNode(i, 0)
		x.coords = append(x.coords, linalg.Coord{Row: n, Col: n, Val: 1 / cfg.Rsource})
	}
	for j := 0; j < cfg.Cols; j++ {
		n := x.cNode(cfg.Rows-1, j)
		x.coords = append(x.coords, linalg.Coord{Row: n, Col: n, Val: 1 / cfg.Rsink})
	}
	x.devOff = len(x.coords)
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			stamp2(0, x.rNode(i, j), x.mNode(i, j))
			stamp2(0, x.mNode(i, j), x.cNode(i, j))
		}
	}
}

// kcl evaluates the network at the iterate x.volt under the drive
// vector v, node by node from the wire, source, sink and device
// currents. It writes the KCL violation F — the net current leaving
// each node — into x.res and returns ‖F‖/‖rhs‖, where rhs is the drive
// injection plus the Newton companion sources I(v₀) − g(v₀)·v₀ of
// every device at the iterate (‖F‖ alone when rhs vanishes). F equals
// J·v − rhs for the Jacobian J at the iterate, so the ratio is the
// relative residual of the linearized system, and it is the one
// acceptance measure of every rung. With stamp set, kcl also loads
// that system for a Newton update: J into x.pattern and rhs into
// x.rhs.
func (x *Crossbar) kcl(v []float64, stamp bool) float64 {
	cfg := x.cfg
	R, C := cfg.Rows, cfg.Cols
	RC := R * C
	gw := 1 / cfg.Rwire
	gsrc := 1 / cfg.Rsource
	gsnk := 1 / cfg.Rsink
	volt, res := x.volt, x.res
	var f2, b2 float64
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			k := i*C + j
			r, m, c := k, RC+k, 2*RC+k
			vs, vd := volt[r]-volt[m], volt[m]-volt[c]
			is, gs := x.sel.Eval(vs)
			id, gd := x.cell[k].Eval(vd)
			qs, qd := is-gs*vs, id-gd*vd // companion sources

			fr, br := is, -qs
			if j > 0 {
				fr += gw * (volt[r] - volt[r-1])
			} else {
				fr += gsrc * (volt[r] - v[i])
				br += gsrc * v[i]
			}
			if j+1 < C {
				fr += gw * (volt[r] - volt[r+1])
			}
			fm, bm := id-is, qs-qd
			fc, bc := -id, qd
			if i > 0 {
				fc += gw * (volt[c] - volt[c-C])
			}
			if i+1 < R {
				fc += gw * (volt[c] - volt[c+C])
			} else {
				fc += gsnk * volt[c]
			}
			res[r], res[m], res[c] = fr, fm, fc
			f2 += fr*fr + fm*fm + fc*fc
			b2 += br*br + bm*bm + bc*bc
			if stamp {
				x.rhs[r], x.rhs[m], x.rhs[c] = br, bm, bc
				d := x.coords[x.devOff+8*k : x.devOff+8*k+8]
				d[0].Val, d[1].Val, d[2].Val, d[3].Val = gs, gs, -gs, -gs
				d[4].Val, d[5].Val, d[6].Val, d[7].Val = gd, gd, -gd, -gd
			}
		}
	}
	if x.faults != nil && x.faults.NaNConductance {
		// Injected corruption: the selector of cell (0, 0) has a NaN
		// conductance, which reaches both F and the Jacobian.
		res[0] = math.NaN()
		f2 = math.NaN()
		if stamp {
			x.coords[x.devOff].Val = math.NaN()
		}
	}
	if stamp {
		x.pattern.Update(x.coords)
	}
	if b2 == 0 {
		return math.Sqrt(f2)
	}
	return math.Sqrt(f2) / math.Sqrt(b2)
}

// NodeVoltage reports the solved voltage of an internal node; kind is
// "row", "mid" or "col". Intended for tests and debugging.
func (x *Crossbar) NodeVoltage(kind string, i, j int) float64 {
	switch kind {
	case "row":
		return x.volt[x.rNode(i, j)]
	case "mid":
		return x.volt[x.mNode(i, j)]
	case "col":
		return x.volt[x.cNode(i, j)]
	}
	panic("xbar: unknown node kind " + kind)
}

// IdealCurrents returns the error-free MVM I_j = Σ_i V_i·G_ij. It
// allocates its result and delegates to IdealCurrentsInto.
func IdealCurrents(v []float64, g *linalg.Dense) []float64 {
	out := make([]float64, g.Cols)
	IdealCurrentsInto(out, v, g)
	return out
}

// IdealCurrentsInto computes the error-free MVM into dst (length
// Cols), overwriting its contents.
func IdealCurrentsInto(dst []float64, v []float64, g *linalg.Dense) {
	if len(v) != g.Rows {
		panic(fmt.Sprintf("xbar: IdealCurrents with %d inputs for %d rows", len(v), g.Rows))
	}
	if len(dst) != g.Cols {
		panic(fmt.Sprintf("xbar: IdealCurrents into %d outputs for %d cols", len(dst), g.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := g.Row(i)
		for j, gij := range row {
			dst[j] += vi * gij
		}
	}
}
