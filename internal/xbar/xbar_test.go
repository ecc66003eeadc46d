package xbar

import (
	"errors"
	"math"
	"testing"

	"geniex/internal/linalg"
)

// smallConfig returns a fast 8×8 design point for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	return cfg
}

// randomLevels fills a conductance matrix with uniform random levels.
func randomLevels(cfg Config, r *linalg.RNG) *linalg.Dense {
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	return g
}

func randomDrive(cfg Config, r *linalg.RNG) []float64 {
	v := make([]float64, cfg.Rows)
	for i := range v {
		v[i] = cfg.Vsupply * r.Float64()
	}
	return v
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.Ron = -1 },
		func(c *Config) { c.OnOffRatio = 1 },
		func(c *Config) { c.Rwire = 0 },
		func(c *Config) { c.Vsupply = 0 },
		func(c *Config) { c.SelectorVsat = 0 },
		func(c *Config) { c.RRAM.V0 = 0 },
		// The access device must out-conduct every in-window cell: at
		// 0.5 a Gon cell needs a negative RRAM conductance, at 1 an
		// infinite one.
		func(c *Config) { c.SelectorGonFactor = 0.5 },
		func(c *Config) { c.SelectorGonFactor = 1 },
		// NaN fails every positivity test.
		func(c *Config) { c.Ron = math.NaN() },
		func(c *Config) { c.OnOffRatio = math.NaN() },
		func(c *Config) { c.Rsource = math.NaN() },
		func(c *Config) { c.Rsink = math.NaN() },
		func(c *Config) { c.Rwire = math.NaN() },
		func(c *Config) { c.Vsupply = math.NaN() },
		func(c *Config) { c.SelectorVsat = math.NaN() },
		func(c *Config) { c.RRAM.I0 = math.NaN() },
		func(c *Config) { c.RRAM.D0 = math.NaN() },
		func(c *Config) { c.RRAM.V0 = math.NaN() },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestConductanceLevelRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for _, lv := range []float64{0, 0.25, 0.5, 0.75, 1} {
		g := cfg.ConductanceFromLevel(lv)
		if g < cfg.Goff() || g > cfg.Gon() {
			t.Errorf("level %v mapped outside window: %v", lv, g)
		}
		if back := cfg.LevelFromConductance(g); math.Abs(back-lv) > 1e-12 {
			t.Errorf("round trip %v -> %v", lv, back)
		}
	}
	// Clamping.
	if cfg.ConductanceFromLevel(-1) != cfg.Goff() || cfg.ConductanceFromLevel(2) != cfg.Gon() {
		t.Error("out-of-range levels not clamped")
	}
}

// With negligible parasitics and linear devices, the circuit must
// reproduce the ideal MVM almost exactly. This validates the whole MNA
// assembly against first principles.
func TestNearIdealMatchesIdealMVM(t *testing.T) {
	cfg := smallConfig()
	cfg.NonLinear = false
	cfg.Rsource, cfg.Rsink, cfg.Rwire = 1e-3, 1e-3, 1e-3
	r := linalg.NewRNG(1)
	g := randomLevels(cfg, r)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v := randomDrive(cfg, r)
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	ideal := IdealCurrents(v, g)
	for j := range ideal {
		if rel := math.Abs(sol.Currents[j]-ideal[j]) / (ideal[j] + 1e-15); rel > 1e-4 {
			t.Errorf("col %d: circuit %v vs ideal %v (rel %v)", j, sol.Currents[j], ideal[j], rel)
		}
	}
}

// Parasitics can only lose current: each non-ideal column current must
// be below its ideal value for a linear network.
func TestParasiticsReduceCurrent(t *testing.T) {
	cfg := smallConfig()
	cfg.NonLinear = false
	r := linalg.NewRNG(2)
	g := randomLevels(cfg, r)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, cfg.Rows)
	linalg.Fill(v, cfg.Vsupply)
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	ideal := IdealCurrents(v, g)
	for j := range ideal {
		if sol.Currents[j] >= ideal[j] {
			t.Errorf("col %d: non-ideal %v not below ideal %v", j, sol.Currents[j], ideal[j])
		}
		if sol.Currents[j] <= 0 {
			t.Errorf("col %d: non-positive current %v", j, sol.Currents[j])
		}
	}
}

// The linear netlist must obey superposition: solving for v1+v2 equals
// the sum of individual solutions.
func TestLinearSuperposition(t *testing.T) {
	cfg := smallConfig()
	cfg.NonLinear = false
	r := linalg.NewRNG(3)
	g := randomLevels(cfg, r)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v1 := randomDrive(cfg, r)
	v2 := randomDrive(cfg, r)
	// Scale so the sum stays within the validated input range.
	for i := range v1 {
		v1[i] *= 0.5
		v2[i] *= 0.5
	}
	s1, err := xb.Solve(v1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := xb.Solve(v2)
	if err != nil {
		t.Fatal(err)
	}
	s12, err := xb.Solve(linalg.Add(v1, v2))
	if err != nil {
		t.Fatal(err)
	}
	for j := range s12.Currents {
		want := s1.Currents[j] + s2.Currents[j]
		if math.Abs(s12.Currents[j]-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("col %d: superposition broken: %v vs %v", j, s12.Currents[j], want)
		}
	}
}

// The Newton solver on the non-linear netlist must satisfy KCL: the
// current delivered by the sources equals the current absorbed by the
// sinks (no other path to ground exists).
func TestNonLinearKCL(t *testing.T) {
	cfg := smallConfig()
	cfg.Vsupply = 0.5 // stress the non-linearity
	r := linalg.NewRNG(4)
	g := randomLevels(cfg, r)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v := randomDrive(cfg, r)
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	var inTotal float64
	for i := 0; i < cfg.Rows; i++ {
		inTotal += (v[i] - xb.NodeVoltage("row", i, 0)) / cfg.Rsource
	}
	outTotal := linalg.Sum(sol.Currents)
	if math.Abs(inTotal-outTotal) > 1e-9*(1+math.Abs(inTotal)) {
		t.Errorf("KCL violated: in %v, out %v", inTotal, outTotal)
	}
}

// Zero drive must produce zero currents through the non-linear solver.
func TestZeroDrive(t *testing.T) {
	cfg := smallConfig()
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := xb.Solve(make([]float64, cfg.Rows))
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range sol.Currents {
		if math.Abs(c) > 1e-15 {
			t.Errorf("col %d: current %v for zero drive", j, c)
		}
	}
}

func TestSolveInputValidation(t *testing.T) {
	cfg := smallConfig()
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Solve(make([]float64, cfg.Rows+1)); err == nil {
		t.Error("expected length error")
	}
	bad := make([]float64, cfg.Rows)
	bad[0] = cfg.Vsupply * 2
	if _, err := xb.Solve(bad); err == nil {
		t.Error("expected over-voltage error")
	}
	// A NaN drive is an input error, not a solve that fails to
	// converge (which callers would count and retry).
	bad[0] = math.NaN()
	if _, err := xb.Solve(bad); err == nil || errors.Is(err, ErrNewtonDiverged) {
		t.Errorf("NaN drive: got %v, want an input error", err)
	}
}

func TestProgramValidation(t *testing.T) {
	cfg := smallConfig()
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	linalg.Fill(g.Data, cfg.Goff())
	for _, bad := range []float64{cfg.Gon() * 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		g.Set(3, 5, bad) // outside the window, or no conductance at all
		if err := xb.Program(g); err == nil {
			t.Errorf("conductance %v: expected window error", bad)
		}
	}
	if err := xb.Program(linalg.NewDense(2, 2)); err == nil {
		t.Error("expected shape error")
	}
}

// Program overwrites the cell states in place: reprogramming a
// crossbar allocates nothing, whatever its size.
func TestProgramDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 32, 32
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := randomLevels(cfg, linalg.NewRNG(12))
	if n := testing.AllocsPerRun(10, func() {
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Program at 32x32 makes %v allocations, want 0", n)
	}
}

// The analytical model must agree with the full circuit solver when
// the circuit is configured with linear devices (it is the same
// network, evaluated through the distortion matrix).
func TestAnalyticalMatchesLinearCircuit(t *testing.T) {
	cfg := smallConfig()
	cfg.NonLinear = false
	r := linalg.NewRNG(5)
	g := randomLevels(cfg, r)
	ana, err := NewAnalytical(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		v := randomDrive(cfg, r)
		want, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		got := ana.Currents(v)
		for j := range got {
			if math.Abs(got[j]-want.Currents[j]) > 1e-9*(1+math.Abs(want.Currents[j])) {
				t.Errorf("trial %d col %d: analytical %v vs circuit %v", trial, j, got[j], want.Currents[j])
			}
		}
	}
}

// Non-linear devices at elevated supply must deviate from the linear
// (analytical) prediction — this is the data-dependence the paper
// builds GENIEx to capture (Fig. 3).
func TestNonLinearityMatters(t *testing.T) {
	cfg := smallConfig()
	cfg.Vsupply = 0.5
	r := linalg.NewRNG(6)
	g := randomLevels(cfg, r)
	ana, err := NewAnalytical(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, cfg.Rows)
	linalg.Fill(v, cfg.Vsupply)
	nonlinear, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	linear := ana.Currents(v)
	var rel float64
	for j := range linear {
		rel += math.Abs(nonlinear.Currents[j]-linear[j]) / linear[j]
	}
	rel /= float64(len(linear))
	if rel < 0.005 {
		t.Errorf("non-linearity invisible: mean relative difference %v", rel)
	}
}

func TestNFAndRatio(t *testing.T) {
	cfg := smallConfig()
	full := float64(cfg.Rows) * cfg.Vsupply * cfg.Gon()
	ideal := []float64{full, full / 2, 0}
	non := []float64{full * 0.8, full / 2 * 0.9, 0}
	nf := NF(ideal, non, cfg)
	if math.Abs(nf[0]-0.2) > 1e-12 || math.Abs(nf[1]-0.1) > 1e-12 || nf[2] != 0 {
		t.Errorf("NF = %v", nf)
	}
	fr := Ratio(ideal, non, cfg)
	if math.Abs(fr[0]-1.25) > 1e-12 || nf[2] != 0 || fr[2] != 1 {
		t.Errorf("fR = %v", fr)
	}
	rec := ApplyRatio(ideal, fr)
	for j := range rec {
		if math.Abs(rec[j]-non[j]) > 1e-12 {
			t.Errorf("ApplyRatio[%d] = %v, want %v", j, rec[j], non[j])
		}
	}
}

func TestApplyRatioGuardsNonPositive(t *testing.T) {
	rec := ApplyRatio([]float64{1, 2}, []float64{-1, 0})
	if rec[0] != 1 || rec[1] != 2 {
		t.Errorf("ApplyRatio with bad ratios = %v", rec)
	}
}

// NF grows with crossbar size (paper Fig. 2b): bigger arrays mean
// longer lines and lower effective resistance.
func TestNFGrowsWithSize(t *testing.T) {
	var means []float64
	for _, n := range []int{4, 8, 16} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = n, n
		cfg.NonLinear = false
		r := linalg.NewRNG(7)
		g := randomLevels(cfg, r)
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		v := make([]float64, cfg.Rows)
		linalg.Fill(v, cfg.Vsupply)
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		nf := NF(IdealCurrents(v, g), sol.Currents, cfg)
		means = append(means, linalg.Sum(nf)/float64(len(nf)))
	}
	if !(means[0] < means[1] && means[1] < means[2]) {
		t.Errorf("NF means not increasing with size: %v", means)
	}
}

// NF shrinks with higher ON resistance (paper Fig. 2c).
func TestNFShrinksWithRon(t *testing.T) {
	var means []float64
	for _, ron := range []float64{50e3, 100e3, 300e3} {
		cfg := smallConfig()
		cfg.Ron = ron
		cfg.NonLinear = false
		r := linalg.NewRNG(8)
		g := randomLevels(cfg, r)
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		v := make([]float64, cfg.Rows)
		linalg.Fill(v, cfg.Vsupply)
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		nf := NF(IdealCurrents(v, g), sol.Currents, cfg)
		means = append(means, linalg.Sum(nf)/float64(len(nf)))
	}
	if !(means[0] > means[1] && means[1] > means[2]) {
		t.Errorf("NF means not decreasing with Ron: %v", means)
	}
}

// NF shrinks as the ON/OFF ratio grows (paper Fig. 2d): a larger ratio
// raises the average cell resistance for the same Ron.
func TestNFShrinksWithOnOff(t *testing.T) {
	var means []float64
	for _, ratio := range []float64{2, 6, 10} {
		cfg := smallConfig()
		cfg.OnOffRatio = ratio
		cfg.NonLinear = false
		r := linalg.NewRNG(9)
		g := randomLevels(cfg, r)
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		v := make([]float64, cfg.Rows)
		linalg.Fill(v, cfg.Vsupply)
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		nf := NF(IdealCurrents(v, g), sol.Currents, cfg)
		means = append(means, linalg.Sum(nf)/float64(len(nf)))
	}
	if !(means[0] > means[1] && means[1] > means[2]) {
		t.Errorf("NF means not decreasing with ON/OFF ratio: %v", means)
	}
}

func TestBatchSolveMatchesSequential(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(10)
	g := randomLevels(cfg, r)
	const batch = 6
	vs := linalg.NewDense(batch, cfg.Rows)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	got, err := BatchSolve(cfg, g, vs)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batch; b++ {
		sol, err := xb.Solve(vs.Row(b))
		if err != nil {
			t.Fatal(err)
		}
		for j := range sol.Currents {
			if math.Abs(got.At(b, j)-sol.Currents[j]) > 1e-12*(1+math.Abs(sol.Currents[j])) {
				t.Errorf("batch (%d,%d): %v vs %v", b, j, got.At(b, j), sol.Currents[j])
			}
		}
	}
}

func TestBatchSolveShapeError(t *testing.T) {
	cfg := smallConfig()
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	linalg.Fill(g.Data, cfg.Goff())
	if _, err := BatchSolve(cfg, g, linalg.NewDense(2, cfg.Rows+1)); err == nil {
		t.Error("expected shape error")
	}
}

func TestNFStatsPools(t *testing.T) {
	s := NFStats([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if s.N != 4 {
		t.Errorf("pooled N = %d", s.N)
	}
	if math.Abs(s.Mean-0.25) > 1e-12 {
		t.Errorf("pooled mean = %v", s.Mean)
	}
}

// Determinism: the same config, conductances and drive produce
// identical currents across solver instances.
func TestSolverDeterminism(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(11)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)
	var ref []float64
	for trial := 0; trial < 2; trial++ {
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = sol.Currents
			continue
		}
		for j := range ref {
			if sol.Currents[j] != ref[j] {
				t.Errorf("col %d: %v vs %v", j, sol.Currents[j], ref[j])
			}
		}
	}
}

// meanNFNonLinear samples mean NF with the full non-linear device
// models (the regime of the paper's Fig. 2 sweeps).
func meanNFNonLinear(t *testing.T, mutate func(*Config)) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	mutate(&cfg)
	r := linalg.NewRNG(99)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for s := 0; s < 6; s++ {
		g := randomLevels(cfg, r)
		v := randomDrive(cfg, r)
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range NF(IdealCurrents(v, g), sol.Currents, cfg) {
			sum += f
			n++
		}
	}
	return sum / float64(n)
}

// With the calibrated device parameters the paper's Fig. 2 trends must
// hold for the full non-linear netlist, not just the linear one.
func TestNonLinearNFTrendWithSize(t *testing.T) {
	small := meanNFNonLinear(t, func(c *Config) { c.Rows, c.Cols = 8, 8 })
	large := meanNFNonLinear(t, func(c *Config) { c.Rows, c.Cols = 32, 32 })
	if !(small < large) {
		t.Errorf("non-linear NF not increasing with size: %v vs %v", small, large)
	}
}

func TestNonLinearNFTrendWithRon(t *testing.T) {
	low := meanNFNonLinear(t, func(c *Config) { c.Ron = 50e3 })
	high := meanNFNonLinear(t, func(c *Config) { c.Ron = 300e3 })
	if !(low > high) {
		t.Errorf("non-linear NF not decreasing with Ron: %v vs %v", low, high)
	}
}

func TestNonLinearNFTrendWithOnOff(t *testing.T) {
	low := meanNFNonLinear(t, func(c *Config) { c.OnOffRatio = 2 })
	high := meanNFNonLinear(t, func(c *Config) { c.OnOffRatio = 10 })
	if !(low > high) {
		t.Errorf("non-linear NF not decreasing with ON/OFF: %v vs %v", low, high)
	}
}

// Non-square crossbars must work end to end: the netlist, solver and
// metrics are all Rows×Cols generic.
func TestNonSquareCrossbar(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 6, 10
	cfg.NonLinear = false
	cfg.Rsource, cfg.Rsink, cfg.Rwire = 1e-3, 1e-3, 1e-3
	r := linalg.NewRNG(61)
	g := randomLevels(cfg, r)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v := randomDrive(cfg, r)
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Currents) != 10 {
		t.Fatalf("got %d output currents, want 10", len(sol.Currents))
	}
	ideal := IdealCurrents(v, g)
	for j := range ideal {
		if rel := math.Abs(sol.Currents[j]-ideal[j]) / (ideal[j] + 1e-15); rel > 1e-4 {
			t.Errorf("col %d: rel error %v", j, rel)
		}
	}
}

func TestNonSquareAnalytical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 5, 3
	r := linalg.NewRNG(67)
	g := randomLevels(cfg, r)
	ana, err := NewAnalytical(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	got := ana.Currents(randomDrive(cfg, r))
	if len(got) != 3 {
		t.Fatalf("analytical returned %d currents, want 3", len(got))
	}
	if m := ana.Matrix(); m.Rows != 3 || m.Cols != 5 {
		t.Fatalf("distortion matrix is %dx%d, want 3x5", m.Rows, m.Cols)
	}
}

// Driver power must be positive for any non-zero drive and scale with
// supply voltage roughly quadratically (resistive network).
func TestSolutionPower(t *testing.T) {
	powerAt := func(vs float64) float64 {
		cfg := smallConfig()
		cfg.NonLinear = false
		cfg.Vsupply = vs
		r := linalg.NewRNG(71)
		g := randomLevels(cfg, r)
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		v := make([]float64, cfg.Rows)
		linalg.Fill(v, cfg.Vsupply)
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		return sol.Power
	}
	p1 := powerAt(0.25)
	p2 := powerAt(0.5)
	if p1 <= 0 {
		t.Fatalf("non-positive power %v", p1)
	}
	if ratio := p2 / p1; math.Abs(ratio-4) > 0.2 {
		t.Errorf("power ratio at 2x voltage = %v, want ~4 (linear network)", ratio)
	}
	// Zero drive → zero power.
	cfg := smallConfig()
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := xb.Solve(make([]float64, cfg.Rows))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Power != 0 {
		t.Errorf("zero drive dissipates %v", sol.Power)
	}
}
