package xbar

import (
	"fmt"

	"geniex/internal/device"
	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// Crossbar is a programmed crossbar instance ready to solve MVMs at
// circuit level. It is not safe for concurrent use; use BatchSolve for
// parallel workloads (it clones per worker).
type Crossbar struct {
	cfg Config
	g   *linalg.Dense // programmed low-bias conductances, Rows×Cols

	sel  device.Element   // access device, shared by all cells
	cell []device.Element // RRAM per cell, row-major

	pattern *linalg.Pattern
	coords  []linalg.Coord
	ws      *linalg.CGWorkspace
	volt    []float64 // node voltages; the Newton iterate
	rhs     []float64
	delta   []float64
	prev    []float64 // iterate before the last Newton update
	step    []float64 // last full Newton step (for damped backtracking)
	res     []float64 // KCL residual scratch
	best    []float64 // lowest-residual iterate (best-effort reporting)

	// newton iteration controls
	maxNewton int
	tolV      float64

	// Per-programming factorization cache (see factor.go). fact is
	// built lazily on the first non-cold solve after a Program and
	// invalidated by the next one; factScr is this instance's scratch;
	// precond wraps both for the inner CG solves. activePrecond is
	// non-nil only during the seeded rung-0 attempt — recovery rungs
	// keep the legacy Jacobi path.
	fact          *opFactor
	factScr       *factorScratch
	factErr       bool // factor build failed; cold-start until reprogrammed
	precond       *factorPrecond
	activePrecond *factorPrecond

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
	// Assemble once to freeze the sparsity pattern; subsequent Newton
	// iterations only update values.
	x.buildCoords(make([]float64, n))
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
		x.precond = nil
		if obs.Enabled() {
			mFactorInvalidations.Inc()
		}
	}
	x.activePrecond = nil
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
			if obs.Enabled() {
				mFactorBuildFailures.Inc()
			}
			return nil
		}
		x.adoptFactor(f)
		if obs.Enabled() {
			mFactorBuilds.Inc()
		}
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
	x.precond = &factorPrecond{f: f, ws: x.factScr}
}

// Conductances returns a copy of the programmed conductance matrix.
func (x *Crossbar) Conductances() *linalg.Dense { return x.g.Clone() }

// buildCoords assembles the Newton-linearized conductance stamp for
// the current node voltage estimate volt, filling x.coords and x.rhs.
// The triplet order is deterministic so a Pattern can reuse it.
func (x *Crossbar) buildCoords(volt []float64) {
	cfg := x.cfg
	x.coords = x.coords[:0]
	linalg.Fill(x.rhs, 0)
	gw := 1 / cfg.Rwire
	gsrc := 1 / cfg.Rsource
	gsnk := 1 / cfg.Rsink

	stamp2 := func(g float64, an, bn int) {
		x.coords = append(x.coords,
			linalg.Coord{Row: an, Col: an, Val: g},
			linalg.Coord{Row: bn, Col: bn, Val: g},
			linalg.Coord{Row: an, Col: bn, Val: -g},
			linalg.Coord{Row: bn, Col: an, Val: -g},
		)
	}

	// Word-line wire segments.
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j+1 < cfg.Cols; j++ {
			stamp2(gw, x.rNode(i, j), x.rNode(i, j+1))
		}
	}
	// Bit-line wire segments.
	for j := 0; j < cfg.Cols; j++ {
		for i := 0; i+1 < cfg.Rows; i++ {
			stamp2(gw, x.cNode(i, j), x.cNode(i+1, j))
		}
	}
	// Source resistances: Norton equivalent of the word-line driver.
	// The drive voltage enters through the RHS during Solve.
	for i := 0; i < cfg.Rows; i++ {
		n := x.rNode(i, 0)
		x.coords = append(x.coords, linalg.Coord{Row: n, Col: n, Val: gsrc})
	}
	// Sink resistances to virtual ground at the bottom of each column.
	for j := 0; j < cfg.Cols; j++ {
		n := x.cNode(cfg.Rows-1, j)
		x.coords = append(x.coords, linalg.Coord{Row: n, Col: n, Val: gsnk})
	}
	// Devices: selector between row and mid node, RRAM between mid and
	// column node. Newton companion model: the element behaves as a
	// conductance g = dI/dV at the present branch voltage plus a
	// current source Ieq = I(v0) − g·v0.
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			rn, mn, cn := x.rNode(i, j), x.mNode(i, j), x.cNode(i, j)
			x.stampElement(x.sel, rn, mn, volt)
			x.stampElement(x.cell[i*cfg.Cols+j], mn, cn, volt)
		}
	}
}

func (x *Crossbar) stampElement(e device.Element, an, bn int, volt []float64) {
	v0 := volt[an] - volt[bn]
	g := e.Conductance(v0)
	ieq := e.Current(v0) - g*v0
	x.coords = append(x.coords,
		linalg.Coord{Row: an, Col: an, Val: g},
		linalg.Coord{Row: bn, Col: bn, Val: g},
		linalg.Coord{Row: an, Col: bn, Val: -g},
		linalg.Coord{Row: bn, Col: an, Val: -g},
	)
	x.rhs[an] -= ieq
	x.rhs[bn] += ieq
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
