package xbar

import (
	"fmt"
	"math"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// jvp returns J·x for the Jacobian J at iterate v under drive d, by
// central differences of kcl's F with the step scaled to x: it shares
// no code with the factor. xb.volt is left at v.
func jvp(xb *Crossbar, d, v, x []float64) []float64 {
	eps := 1e-6 / linalg.NormInf(x)
	f := func(s float64) []float64 {
		for n := range v {
			xb.volt[n] = v[n] + s*eps*x[n]
		}
		xb.kcl(d, false)
		return append([]float64(nil), xb.res...)
	}
	fp, fm := f(1), f(-1)
	copy(xb.volt, v)
	for n := range fp {
		fp[n] = (fp[n] - fm[n]) / (2 * eps)
	}
	return fp
}

// The structured factorization must solve the Jacobian it is built
// from, to direct-solver accuracy. The reference is jvp: for a random
// x₀ and b = J·x₀, the factored solve x = J⁻¹·b must give J·x = b. J₀,
// the cached zero-bias factor, is checked across degenerate and
// non-square shapes; J(v) at a saturated iterate, whose per-cell
// selector conductances differ from J₀'s, is checked at the
// TestChordHandsOverToDamped point.
func TestFactorSolvesLinearizedSystem(t *testing.T) {
	r := linalg.NewRNG(50)
	check := func(name string, xb *Crossbar, f *opFactor, d, v []float64) {
		t.Helper()
		x0 := make([]float64, len(v))
		for i := range x0 {
			x0[i] = 2*r.Float64() - 1
		}
		b := jvp(xb, d, v, x0)
		x := make([]float64, len(v))
		f.solveInto(x, b, newFactorScratch(xb.cfg))
		res := jvp(xb, d, v, x)
		for i := range res {
			res[i] -= b[i]
		}
		if rel := linalg.Norm2(res) / linalg.Norm2(b); rel > 1e-9 {
			t.Errorf("%s: factorized solve residual %v", name, rel)
		}
	}
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {4, 7}, {8, 8}, {5, 3}} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = dims[0], dims[1]
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(randomLevels(cfg, r)); err != nil {
			t.Fatal(err)
		}
		f := xb.ensureFactor()
		if f == nil {
			t.Fatalf("%dx%d: zero-bias factor build failed", dims[0], dims[1])
		}
		check(fmt.Sprintf("J₀ %dx%d", dims[0], dims[1]), xb, f, make([]float64, cfg.Rows), make([]float64, xb.numNodes()))
	}

	cfg := smallConfig()
	cfg.Vsupply = 0.5
	cfg.SelectorVsat = 0.02
	rs := linalg.NewRNG(28)
	g, d := randomLevels(cfg, rs), randomDrive(cfg, rs)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Solve(d); err != nil {
		t.Fatal(err)
	}
	v := append([]float64(nil), xb.volt...)
	xb.kcl(d, true)
	lo, hi := xb.jsel[0], xb.jsel[0]
	for _, gs := range xb.jsel {
		lo, hi = min(lo, gs), max(hi, gs)
	}
	if g0 := xb.gsel; !(hi/lo > 10 && lo < g0/10) {
		t.Fatalf("selector conductances [%g, %g] at the iterate, J₀ has %g: not saturated", lo, hi, g0)
	}
	f, err := buildFactor(cfg, xb.jsel, xb.jcell)
	if err != nil {
		t.Fatal(err)
	}
	check("J(v) saturated 8x8", xb, f, d, v)
}

// digitDrive draws word-line voltages on the 4-bit DAC grid the
// functional simulator drives tiles with: Vsupply·d/15, d ∈ [0, 15].
func digitDrive(cfg Config, r *linalg.RNG) []float64 {
	v := make([]float64, cfg.Rows)
	for i := range v {
		v[i] = cfg.Vsupply * float64(r.Intn(16)) / 15
	}
	return v
}

// currentsRRMSE is the relative RMS difference of two current vectors.
func currentsRRMSE(got, want []float64) float64 {
	var d2, w2 float64
	for j := range want {
		d := got[j] - want[j]
		d2 += d * d
		w2 += want[j] * want[j]
	}
	return math.Sqrt(d2 / w2)
}

// The seeded default — chord iteration on the cached zero-bias factor —
// must be accepted on rung 0 within a few updates across the design
// grid the experiments use, and agree with cold-start Newton to solver
// tolerance.
func TestSeededSolveMatchesCold(t *testing.T) {
	type point struct {
		ron, onOff, rwire, vsupply float64
	}
	var points []point
	for _, dev := range [][2]float64{{100e3, 6}, {50e3, 2}} {
		for _, vs := range []float64{0.25, 0.5} {
			points = append(points, point{dev[0], dev[1], 2.5, vs})
		}
	}
	for _, n := range []int{8, 16, 32} {
		cases := points
		if n == 8 {
			// The retraining example's harsh design point.
			cases = append(cases, point{25e3, 2, 25, 0.25}, point{25e3, 2, 25, 0.5})
		}
		for _, p := range cases {
			cfg := DefaultConfig()
			cfg.Rows, cfg.Cols = n, n
			cfg.Ron, cfg.OnOffRatio, cfg.Rwire, cfg.Vsupply = p.ron, p.onOff, p.rwire, p.vsupply
			name := fmt.Sprintf("%dx%d_Ron=%gk_onoff=%g_Rw=%g_V=%g", n, n, p.ron/1e3, p.onOff, p.rwire, p.vsupply)
			t.Run(name, func(t *testing.T) {
				r := linalg.NewRNG(51)
				g := randomLevels(cfg, r)
				cold := cfg
				cold.Start = StartCold
				for trial := 0; trial < 2; trial++ {
					v := digitDrive(cfg, r)
					want := cleanSolve(t, cold, g, v)
					if want.Seeded {
						t.Fatal("cold solve reported a seeded start")
					}
					got := cleanSolve(t, cfg, g, v)
					if !got.Seeded || got.Recovery != "" || !got.Converged {
						t.Fatalf("trial %d: seeded=%v recovery=%q converged=%v, want a seeded rung-0 solve",
							trial, got.Seeded, got.Recovery, got.Converged)
					}
					if got.NewtonIters > 10 {
						t.Errorf("trial %d: %d chord updates, want ≤ 10", trial, got.NewtonIters)
					}
					if d := currentsRRMSE(got.Currents, want.Currents); d > 1e-6 {
						t.Errorf("trial %d: seeded vs cold currents differ by rRMSE %v", trial, d)
					}
				}
			})
		}
	}
}

// Reprogramming must invalidate the cached factorization: the next
// solve rebuilds it against the new conductances and matches a fresh
// instance exactly.
func TestFactorInvalidatedOnProgram(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(53)
	g1 := randomLevels(cfg, r)
	g2 := randomLevels(cfg, r)
	v := randomDrive(cfg, r)

	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g1); err != nil {
		t.Fatal(err)
	}
	before := obs.Snapshot()
	if _, err := xb.Solve(v); err != nil {
		t.Fatal(err)
	}
	mid := obs.Snapshot()
	if d := mid.Counters["xbar.solver.factor.builds"] - before.Counters["xbar.solver.factor.builds"]; d != 1 {
		t.Errorf("factor builds moved by %d after first solve, want 1", d)
	}
	if d := mid.Counters["xbar.solver.factor.reuses"] - before.Counters["xbar.solver.factor.reuses"]; d != 1 {
		t.Errorf("factor reuses moved by %d, want 1", d)
	}

	if err := xb.Program(g2); err != nil {
		t.Fatal(err)
	}
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Snapshot()
	if d := after.Counters["xbar.solver.factor.invalidations"] - mid.Counters["xbar.solver.factor.invalidations"]; d != 1 {
		t.Errorf("factor invalidations moved by %d after reprogram, want 1", d)
	}
	if d := after.Counters["xbar.solver.factor.builds"] - mid.Counters["xbar.solver.factor.builds"]; d != 1 {
		t.Errorf("factor builds moved by %d after reprogram, want 1", d)
	}

	want := cleanSolve(t, cfg, g2, v)
	for j := range want.Currents {
		if sol.Currents[j] != want.Currents[j] {
			t.Errorf("col %d: reprogrammed solve %v != fresh instance %v", j, sol.Currents[j], want.Currents[j])
		}
	}
}

// Satellite regression: the default seeded batch path stays
// bit-identical across worker counts with the factorization cache
// active, and the pooled instances share one factorization.
func TestSeededBatchDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(54)
	g := randomLevels(cfg, r)
	const batch = 12
	vs := linalg.NewDense(batch, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}

	solveAt := func(workers int) (*linalg.Dense, *BatchReport, int64, int64) {
		c := cfg
		c.BatchWorkers = workers
		before := obs.Snapshot()
		out, rep, err := BatchSolveReport(c, g, vs)
		if err != nil {
			t.Fatal(err)
		}
		after := obs.Snapshot()
		builds := after.Counters["xbar.solver.factor.builds"] - before.Counters["xbar.solver.factor.builds"]
		reuses := after.Counters["xbar.solver.factor.reuses"] - before.Counters["xbar.solver.factor.reuses"]
		return out, rep, builds, reuses
	}

	serial, serialRep, serialBuilds, serialReuses := solveAt(1)
	parallel, parallelRep, parallelBuilds, parallelReuses := solveAt(4)
	if serialBuilds != 1 || parallelBuilds != 1 {
		t.Errorf("factor builds = %d serial / %d parallel, want 1 each (pool shares the factor)",
			serialBuilds, parallelBuilds)
	}
	if serialReuses != batch || parallelReuses != batch {
		t.Errorf("factor reuses = %d serial / %d parallel, want %d each (cache active on every item)",
			serialReuses, parallelReuses, batch)
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("output[%d]: serial %v != parallel %v", i, serial.Data[i], parallel.Data[i])
		}
	}
	for b := 0; b < batch; b++ {
		s, p := serialRep.Outcomes[b], parallelRep.Outcomes[b]
		if s.NewtonIters != p.NewtonIters || s.Residual != p.Residual {
			t.Errorf("item %d: solver work differs across worker counts: %+v vs %+v", b, s, p)
		}
	}
}

// Validate accepts exactly StartSeeded and StartCold and rejects every
// other value, including the first one past StartCold.
func TestValidateStart(t *testing.T) {
	cfg := smallConfig()
	for _, s := range []SolverStart{StartSeeded, StartCold} {
		cfg.Start = s
		if err := cfg.Validate(); err != nil {
			t.Errorf("start %v rejected: %v", s, err)
		}
	}
	for _, s := range []SolverStart{-1, 2, 17} {
		cfg.Start = s
		if err := cfg.Validate(); err == nil {
			t.Errorf("expected validation error for start %d", int(s))
		}
	}
}
