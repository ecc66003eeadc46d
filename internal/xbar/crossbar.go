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

	// The programmed array as device-law parameters: every cell's
	// access device has low-bias conductance gsel, and cell holds each
	// cell's RRAM state, row-major — its sinh prefactor I0·exp(−d/d0)
	// under the non-linear law, its conductance under the linear one
	// (see programCells). Program overwrites cell in place.
	gsel float64
	cell []float64

	volt []float64 // node voltages; the iterate
	prev []float64 // iterate before the last Newton update
	step []float64 // last full Newton step J⁻¹·F (for damped backtracking)
	res  []float64 // KCL violation F at volt
	best []float64 // lowest-residual iterate (best-effort reporting)
	sol  Solution  // the batch path's reused result
	// The Newton rungs' Jacobian at the iterate: each cell's selector
	// and RRAM differential conductance, as kcl records them.
	jsel, jcell []float64

	maxNewton int // update budget per rung (see setFaults)

	// Per-programming zero-bias factorization cache (see factor.go).
	// fact is built lazily on the first non-cold solve after a Program
	// and invalidated by the next one; factScr is this instance's
	// scratch for every factored solve. zero is the storage this
	// instance owns for J₀: each build after a Program refactors it in
	// place, and fact then points at it. A fact adopted from a
	// BatchSolver pool, or handed to one, is shared: zero is nil then,
	// so nothing rebuilds a shared factor. jac is the storage every
	// Newton update refactors J(v) into; it is never shared.
	fact      *opFactor
	zero, jac *opFactor
	factScr   *factorScratch
	factErr   bool // factor build failed; cold-start until reprogrammed

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
		cfg:  cfg,
		gsel: cfg.SelectorGonFactor / cfg.Ron,
		cell: make([]float64, cfg.Rows*cfg.Cols),
	}
	x.setFaults(cfg.faults)
	n := x.numNodes()
	x.volt = make([]float64, n)
	x.prev = make([]float64, n)
	x.step = make([]float64, n)
	x.res = make([]float64, n)
	x.best = make([]float64, n)
	x.jsel = make([]float64, cfg.Rows*cfg.Cols)
	x.jcell = make([]float64, cfg.Rows*cfg.Cols)
	x.factScr = newFactorScratch(cfg)

	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	linalg.Fill(g.Data, cfg.Goff())
	if err := x.Program(g); err != nil {
		return nil, err
	}
	return x, nil
}

// Config returns the design point of this crossbar.
func (x *Crossbar) Config() Config { return x.cfg }

// Program loads a conductance matrix (siemens). Values must lie within
// [Goff, Gon] up to a small tolerance; out-of-window values are an
// error rather than silently clamped, since they indicate a bug in the
// caller's weight mapping, and leave the previous programming in place.
// Each cell is series-calibrated against its access device, as
// closed-loop write-verify hardware programs it (see programCells).
// Program allocates nothing: it overwrites the cell states in place.
func (x *Crossbar) Program(g *linalg.Dense) error {
	if g.Rows != x.cfg.Rows || g.Cols != x.cfg.Cols {
		return fmt.Errorf("xbar: Program with %dx%d matrix on %dx%d crossbar",
			g.Rows, g.Cols, x.cfg.Rows, x.cfg.Cols)
	}
	if err := programCells(x.cfg, x.cell, g.Data); err != nil {
		return err
	}
	// Reprogramming (including nonideal re-lowering, which arrives
	// through Program) invalidates the zero-bias factorization.
	if x.fact != nil {
		x.fact = nil
		mFactorInvalidations.Inc()
	}
	x.factErr = false
	return nil
}

// windowSlack is the relative tolerance, in units of Gon, by which a
// programmed conductance may leave the window [Goff, Gon].
const windowSlack = 1e-9

// programCells is the programming step shared by Program and
// WriteSPICE. It checks that every target low-bias conductance in g
// lies in [Goff, Gon] up to windowSlack (NaN does not), and only then
// writes each cell's device state into cell.
//
// Programming is calibrated the way closed-loop write-verify hardware
// does it: the RRAM conductance gcell is chosen so that its series
// combination with the access device has the target conductance,
// 1/gcell = 1/g − 1/gsel. Without this, the access device's
// on-resistance would shift every weight systematically, which a real
// programming loop compensates for. Config.Validate keeps gsel above
// Gon·(1+windowSlack), so gcell is positive and finite.
func programCells(cfg Config, cell, g []float64) error {
	lo, hi := cfg.Goff(), cfg.Gon()
	slack := windowSlack * hi
	for k, gv := range g {
		if !(gv >= lo-slack && gv <= hi+slack) { // NaN fails both tests
			return fmt.Errorf("xbar: conductance %g outside window [%g, %g] at cell %d", gv, lo, hi, k)
		}
	}
	gsel := cfg.SelectorGonFactor / cfg.Ron
	for k, gv := range g {
		gcell := 1 / (1/gv - 1/gsel)
		if cfg.NonLinear {
			cell[k] = gcell * cfg.RRAM.V0 // the sinh prefactor I0·exp(−d/d0)
		} else {
			cell[k] = gcell
		}
	}
	return nil
}

// ensureFactor returns the cached zero-bias factorization, building it
// into the storage this instance owns on first use after a Program. It
// returns nil when the configuration forbids it (StartCold) or when a
// build failed — the caller then falls back to the cold start.
func (x *Crossbar) ensureFactor() *opFactor {
	if x.cfg.Start == StartCold || x.factErr {
		return nil
	}
	if x.fact == nil {
		if x.zero == nil {
			x.zero = newOpFactor(x.cfg)
		}
		if err := x.zeroBiasFactor(x.zero); err != nil {
			x.factErr = true
			return nil
		}
		x.fact = x.zero
		mFactorBuilds.Inc()
	}
	return x.fact
}

// shareFactor returns the zero-bias factorization for other instances
// programmed identically to adopt, and gives up this instance's claim
// on its storage: a later Program rebuilds J₀ into fresh storage, never
// into the factor the others read.
func (x *Crossbar) shareFactor() *opFactor {
	f := x.ensureFactor()
	x.zero = nil
	return f
}

// kcl evaluates the network at the iterate x.volt under the drive
// vector v, node by node from the wire, source, sink and device
// currents. It writes the KCL violation F — the net current leaving
// each node — into x.res and returns ‖F‖/‖rhs‖, where rhs is the drive
// injection plus the Newton companion sources I(v₀) − g(v₀)·v₀ of
// every device at the iterate (‖F‖ alone when rhs vanishes). F equals
// J·v − rhs for the Jacobian J at the iterate, so the ratio is the
// relative residual of the linearized system, and it is the one
// acceptance measure of every rung. With stamp set, kcl also records
// J for a Newton update: each device's differential conductance at the
// iterate, into x.jsel and x.jcell.
func (x *Crossbar) kcl(v []float64, stamp bool) float64 {
	var f2, b2 [1]float64
	x.kclLanes(v, x.volt, x.res, 1, f2[:], b2[:], stamp)
	if x.faults != nil && x.faults.NaNConductance {
		// Injected corruption: the selector of cell (0, 0) has a NaN
		// conductance, which reaches both F and the Jacobian.
		x.res[0] = math.NaN()
		f2[0] = math.NaN()
		if stamp {
			x.jsel[0] = math.NaN()
		}
	}
	return relResid(f2[0], b2[0])
}

// relResid is kcl's ‖F‖/‖rhs‖ from the two squared norms.
func relResid(f2, b2 float64) float64 {
	if b2 == 0 {
		return math.Sqrt(f2)
	}
	return math.Sqrt(f2) / math.Sqrt(b2)
}

// kclLanes is kcl's evaluation for m = len(f2) iterates at once, stored
// lane-minor with stride ld: node n of lane r at volt[n*ld+r], drive i
// at v[i*ld+r]. It writes each lane's F into res in the same layout and
// adds its ‖F‖² and ‖rhs‖² to f2[r] and b2[r]. The one-item ladder
// calls it with one lane (ld = 1); the block chord calls it with the
// block's active lanes. Every lane goes through the same operations in
// the same order either way. stamp (one lane only) also records the
// Newton Jacobian, as kcl documents.
func (x *Crossbar) kclLanes(v, volt, res []float64, ld int, f2, b2 []float64, stamp bool) {
	cfg := x.cfg
	R, C := cfg.Rows, cfg.Cols
	RC := R * C
	gw := 1 / cfg.Rwire
	gsrc := 1 / cfg.Rsource
	gsnk := 1 / cfg.Rsink
	m := len(f2)
	for i := 0; i < R; i++ {
		vi := v[i*ld : i*ld+m]
		for j := 0; j < C; j++ {
			k := i*C + j
			r, mid, c := k*ld, (RC+k)*ld, (2*RC+k)*ld
			cell := x.cell[k]
			for l := range f2 {
				vr, vm, vc := volt[r+l], volt[mid+l], volt[c+l]
				vs, vd := vr-vm, vm-vc
				is, gs, id, gd := x.devices(cell, vs, vd)
				qs, qd := is-gs*vs, id-gd*vd // companion sources

				fr, br := is, -qs
				if j > 0 {
					fr += gw * (vr - volt[r-ld+l])
				} else {
					fr += gsrc * (vr - vi[l])
					br += gsrc * vi[l]
				}
				if j+1 < C {
					fr += gw * (vr - volt[r+ld+l])
				}
				fm, bm := id-is, qs-qd
				fc, bc := -id, qd
				if i > 0 {
					fc += gw * (vc - volt[c-C*ld+l])
				}
				if i+1 < R {
					fc += gw * (vc - volt[c+C*ld+l])
				} else {
					fc += gsnk * vc
				}
				res[r+l], res[mid+l], res[c+l] = fr, fm, fc
				f2[l] += fr*fr + fm*fm + fc*fc
				b2[l] += br*br + bm*bm + bc*bc
				if stamp {
					x.jsel[k], x.jcell[k] = gs, gd
				}
			}
		}
	}
}

// devices evaluates one cell's device laws: its access device at
// branch voltage vs and its RRAM, in state cell, at vd. Each returns
// its current and differential conductance.
func (x *Crossbar) devices(cell, vs, vd float64) (is, gs, id, gd float64) {
	if !x.cfg.NonLinear {
		return x.gsel * vs, x.gsel, cell * vd, cell
	}
	is, gs = device.SelectorLaw(x.gsel, x.cfg.SelectorVsat, vs)
	id, gd = device.RRAMLaw(cell, x.cfg.RRAM.V0, vd)
	return is, gs, id, gd
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
