package xbar

import (
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

func TestNewConfigValidatesOnce(t *testing.T) {
	cfg, err := NewConfig(16, 8,
		WithRon(50e3), WithOnOffRatio(10), WithVsupply(0.2),
		WithParasitics(400, 80, 2), WithPolicy(PolicyBestEffort), WithBatchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rows != 16 || cfg.Cols != 8 || cfg.Ron != 50e3 || cfg.OnOffRatio != 10 ||
		cfg.Vsupply != 0.2 || cfg.Rsource != 400 || cfg.Policy != PolicyBestEffort ||
		cfg.BatchWorkers != 2 {
		t.Errorf("options not applied: %+v", cfg)
	}
	if _, err := NewConfig(0, 8); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewConfig(8, 8, WithBatchWorkers(-1)); err == nil {
		t.Error("negative BatchWorkers accepted")
	}
	if _, err := NewConfig(8, 8, WithOnOffRatio(0.5)); err == nil {
		t.Error("on/off ratio below 1 accepted")
	}
	if cfg2, err := NewConfig(8, 8, WithLinearDevices()); err != nil || cfg2.NonLinear {
		t.Errorf("WithLinearDevices: cfg=%+v err=%v", cfg2, err)
	}
}

// A circuit solve must land in the obs registry: solve count, latency
// and Newton-iteration histograms, and the accepting rescue rung.
func TestSolveRecordsObsMetrics(t *testing.T) {
	before := obs.Snapshot()

	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := linalg.NewDense(8, 8)
	r := linalg.NewRNG(9)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 8)
	for i := range v {
		v[i] = cfg.Vsupply * r.Float64()
	}
	sol, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}

	after := obs.Snapshot()
	if d := after.Counters["xbar.solver.solves"] - before.Counters["xbar.solver.solves"]; d != 1 {
		t.Errorf("solve counter moved by %d, want 1", d)
	}
	if d := after.Histograms["xbar.solver.latency_seconds"].Count - before.Histograms["xbar.solver.latency_seconds"].Count; d != 1 {
		t.Errorf("latency histogram moved by %d, want 1", d)
	}
	ni := after.Histograms["xbar.solver.newton_iters"]
	if d := ni.Count - before.Histograms["xbar.solver.newton_iters"].Count; d != 1 {
		t.Errorf("newton histogram moved by %d, want 1", d)
	}
	if sol.NewtonIters > 0 && ni.Sum <= before.Histograms["xbar.solver.newton_iters"].Sum {
		t.Errorf("newton histogram sum did not grow (iters=%d)", sol.NewtonIters)
	}
	if d := after.Counters["xbar.solver.rung.newton"] - before.Counters["xbar.solver.rung.newton"]; d != 1 {
		t.Errorf("plain-newton rung counter moved by %d, want 1", d)
	}
}

// Batch solves must record item outcomes in the registry.
func TestBatchRecordsObsMetrics(t *testing.T) {
	before := obs.Snapshot()

	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 6, 6
	g := linalg.NewDense(6, 6)
	r := linalg.NewRNG(11)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	vs := linalg.NewDense(3, 6)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply * r.Float64()
	}
	if _, _, err := BatchSolveReport(cfg, g, vs); err != nil {
		t.Fatal(err)
	}

	after := obs.Snapshot()
	if d := after.Counters["xbar.batch.calls"] - before.Counters["xbar.batch.calls"]; d != 1 {
		t.Errorf("batch call counter moved by %d, want 1", d)
	}
	if d := after.Counters["xbar.batch.items"] - before.Counters["xbar.batch.items"]; d != 3 {
		t.Errorf("batch item counter moved by %d, want 3", d)
	}
}
