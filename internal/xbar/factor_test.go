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
	f := newOpFactor(cfg)
	copy(f.gsel, xb.jsel)
	copy(f.gcell, xb.jcell)
	if err := f.build(cfg); err != nil {
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

// refWordLineSchur is build's bit-line blocks computed the way the
// factor used to compute them: each column of A_i⁻¹·diag(gs_i) from
// one single-vector tridiagonal solve. It returns the blocks factored
// by linalg.BlockTridiag.Factor and the word-line chain factors.
func refWordLineSchur(t *testing.T, cfg Config, gs []float64) ([]*linalg.Dense, []*linalg.Tridiag) {
	R, C := cfg.Rows, cfg.Cols
	gw, gsrc, gsnk := 1/cfg.Rwire, 1/cfg.Rsource, 1/cfg.Rsink
	diag := make([]float64, C)
	off := make([]float64, max(C-1, 0))
	linalg.Fill(off, -gw)
	rowTri := make([]*linalg.Tridiag, R)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			diag[j] = gw*float64(btoi(j > 0)+btoi(j+1 < C)) + gs[i*C+j]
			if j == 0 {
				diag[j] += gsrc
			}
		}
		rowTri[i] = &linalg.Tridiag{}
		if err := rowTri[i].Factor(diag, off); err != nil {
			t.Fatal(err)
		}
	}
	blocks := make([]*linalg.Dense, R)
	offBlocks := make([][]float64, max(R-1, 0))
	col := make([]float64, C)
	for i := 0; i < R; i++ {
		d := linalg.NewDense(C, C)
		for j := 0; j < C; j++ {
			cd := gw*float64(btoi(i > 0)+btoi(i+1 < R)) + gs[i*C+j]
			if i == R-1 {
				cd += gsnk
			}
			d.Set(j, j, cd)
		}
		for k := 0; k < C; k++ {
			linalg.Fill(col, 0)
			col[k] = gs[i*C+k]
			rowTri[i].SolveInto(col, col)
			for j := 0; j < C; j++ {
				d.Data[j*C+k] -= gs[i*C+j] * col[j]
			}
		}
		blocks[i] = d
		if i+1 < R {
			offBlocks[i] = make([]float64, C)
			linalg.Fill(offBlocks[i], -gw)
		}
	}
	if err := new(linalg.BlockTridiag).Factor(blocks, offBlocks); err != nil {
		t.Fatal(err)
	}
	return blocks, rowTri
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// build's block word-line Schur columns must give the blocks and the
// solves of the column-at-a-time reference, bit for bit, on J₀ of
// every shape TestFactorSolvesLinearizedSystem checks, built fresh and
// rebuilt into reused storage.
func TestBuildMatchesColumnReference(t *testing.T) {
	r := linalg.NewRNG(51)
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {4, 7}, {8, 8}, {5, 3}} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = dims[0], dims[1]
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused := newOpFactor(cfg)
		for trial := 0; trial < 2; trial++ {
			if err := xb.Program(randomLevels(cfg, r)); err != nil {
				t.Fatal(err)
			}
			if err := xb.zeroBiasFactor(reused); err != nil {
				t.Fatal(err)
			}
			blocks, rowTri := refWordLineSchur(t, cfg, reused.gs)
			for i, b := range blocks {
				for k, v := range b.Data {
					if g := reused.blocks[i].Data[k]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("%dx%d trial %d level %d entry %d: %v, reference %v", dims[0], dims[1], trial, i, k, g, v)
					}
				}
			}
			for i, tri := range rowTri {
				b := make([]float64, cfg.Cols)
				for j := range b {
					b[j] = 2*r.Float64() - 1
				}
				got, want := make([]float64, len(b)), make([]float64, len(b))
				reused.rowTri[i].SolveInto(got, b)
				tri.SolveInto(want, b)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%dx%d word line %d: solve %v, reference %v", dims[0], dims[1], i, got[j], want[j])
					}
				}
			}
		}
	}
}

// A crossbar reprogrammed again and again rebuilds its factors into
// the same storage; every programming must solve exactly as a fresh
// crossbar programmed once does, on the seeded chord, the cold Newton
// start and the saturated damped rung.
func TestReprogramMatchesFresh(t *testing.T) {
	r := linalg.NewRNG(52)
	for _, tc := range []struct {
		name  string
		start SolverStart
		vsat  float64
	}{
		{"seeded", StartSeeded, 0},
		{"cold", StartCold, 0},
		{"saturated", StartSeeded, 0.02},
	} {
		cfg := smallConfig()
		cfg.Vsupply = 0.5
		cfg.Start = tc.start
		if tc.vsat > 0 {
			cfg.SelectorVsat = tc.vsat
		}
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			g, v := randomLevels(cfg, r), randomDrive(cfg, r)
			if err := xb.Program(g); err != nil {
				t.Fatal(err)
			}
			got, err := xb.Solve(v)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Program(g); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Solve(v)
			if err != nil {
				t.Fatal(err)
			}
			if got.NewtonIters != want.NewtonIters || got.DampedSteps != want.DampedSteps || got.Recovery != want.Recovery ||
				math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
				t.Fatalf("%s programming %d: %+v, fresh %+v", tc.name, k, got, want)
			}
			for j := range want.Currents {
				if math.Float64bits(got.Currents[j]) != math.Float64bits(want.Currents[j]) {
					t.Fatalf("%s programming %d: current %d %v, fresh %v", tc.name, k, j, got.Currents[j], want.Currents[j])
				}
			}
			if tc.name == "saturated" && k == 0 && got.Recovery == "" {
				t.Fatalf("saturated point solved on rung 0; the Newton rungs went unexercised")
			}
		}
	}
}

// Once a 32×32 crossbar that owns its factors has solved, a
// Program→Solve cycle allocates no factor: it allocates exactly what a
// Solve on the unchanged programming does, and J₀ stays in the same
// storage. The same holds for the Newton rungs' J(v) on a cold start.
func TestProgramSolveReusesFactorStorage(t *testing.T) {
	r := linalg.NewRNG(53)
	for _, start := range []SolverStart{StartSeeded, StartCold} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 32, 32
		cfg.Start = start
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g1, g2, v := randomLevels(cfg, r), randomLevels(cfg, r), randomDrive(cfg, r)
		solve := func() {
			if _, err := xb.Solve(v); err != nil {
				t.Fatal(err)
			}
		}
		program := func(g *linalg.Dense) {
			if err := xb.Program(g); err != nil {
				t.Fatal(err)
			}
		}
		program(g1)
		solve()
		zero, jac := xb.zero, xb.jac
		solveOnly := testing.AllocsPerRun(4, solve)
		gs, k := []*linalg.Dense{g1, g2}, 0
		cycle := testing.AllocsPerRun(4, func() {
			k++
			program(gs[k%2])
			solve()
		})
		if cycle > solveOnly {
			t.Errorf("start %d: Program→Solve allocates %v times, a Solve alone %v", start, cycle, solveOnly)
		}
		if xb.zero != zero || xb.jac != jac {
			t.Errorf("start %d: factor storage replaced across programmings", start)
		}
		if start == StartSeeded && (xb.fact != xb.zero || zero == nil) {
			t.Errorf("J₀ is not built into the crossbar's own storage")
		}
		if start == StartCold && jac == nil {
			t.Errorf("cold start ran no Newton update into owned storage")
		}
	}
}

// A BatchSolver pool shares one J₀; the instance that built it gives
// up its storage, so reprogramming that instance builds a new factor
// and never writes the shared one.
func TestSharedFactorNeverRebuilt(t *testing.T) {
	r := linalg.NewRNG(54)
	cfg := smallConfig()
	cfg.BatchWorkers = 1
	s, err := NewBatchSolver(cfg, randomLevels(cfg, r))
	if err != nil {
		t.Fatal(err)
	}
	vs := linalg.NewDense(6, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	before, _, err := s.SolveReport(vs)
	if err != nil {
		t.Fatal(err)
	}
	shared := s.fact
	snapshot := func() []float64 {
		var all []float64
		all = append(all, shared.gsel...)
		all = append(all, shared.gcell...)
		all = append(all, shared.gs...)
		for _, b := range shared.blocks {
			all = append(all, b.Data...)
		}
		return all
	}
	want := snapshot()

	xb, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if xb.fact != shared || xb.zero != nil {
		t.Fatalf("pooled instance: fact shared %v, owns J₀ storage %v", xb.fact == shared, xb.zero != nil)
	}
	if err := xb.Program(randomLevels(cfg, r)); err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Solve(vs.Row(0)); err != nil {
		t.Fatal(err)
	}
	if xb.fact == shared {
		t.Fatal("reprogrammed instance still solves through the shared factor")
	}
	for i, v := range snapshot() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("shared factor value %d changed: %v, was %v", i, v, want[i])
		}
	}
	// With that instance held, the pool builds a new one, which adopts
	// the shared factor and still gives the same currents.
	after, _, err := s.SolveReport(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Data {
		if math.Float64bits(after.Data[i]) != math.Float64bits(before.Data[i]) {
			t.Fatalf("output %d: %v after the reprogramming, %v before", i, after.Data[i], before.Data[i])
		}
	}
}
