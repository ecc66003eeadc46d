package funcsim

import (
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/obs"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

func TestNewConfigValidatesOnce(t *testing.T) {
	xcfg := xbar.DefaultConfig()
	xcfg.Rows, xcfg.Cols = 16, 16
	cfg, err := NewConfig(xcfg,
		WithFormats(quant.FxP{Bits: 8, Frac: 4}, quant.FxP{Bits: 8, Frac: 4}),
		WithStreamBits(2), WithSliceBits(2), WithADCBits(12),
		WithAcc(quant.Acc{Bits: 32, Frac: 8}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Xbar.Rows != 16 || cfg.Weight.Bits != 8 || cfg.StreamBits != 2 ||
		cfg.SliceBits != 2 || cfg.ADCBits != 12 || cfg.Acc.Bits != 32 || cfg.Workers != 2 {
		t.Errorf("options not applied: %+v", cfg)
	}
	if _, err := NewConfig(xbar.Config{}); err == nil {
		t.Error("invalid crossbar accepted")
	}
	if _, err := NewConfig(xcfg, WithStreamBits(99)); err == nil {
		t.Error("oversized stream width accepted")
	}
	if _, err := NewConfig(xcfg, WithWorkers(-1)); err == nil {
		t.Error("negative Workers accepted")
	}
}

// The reset convention: Stats reads without clearing, ResetStats
// atomically clears and returns what it cleared.
func TestMatrixResetStatsSwapSemantics(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(31, 12, 10, 3)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	before := mat.Stats()
	if before.MVMRows != int64(x.Rows) || before.CrossbarOps == 0 {
		t.Fatalf("unexpected stats after MVM: %+v", before)
	}
	if again := mat.Stats(); again != before {
		t.Errorf("Stats read cleared counters: %+v != %+v", again, before)
	}
	cleared := mat.ResetStats()
	if cleared != before {
		t.Errorf("ResetStats returned %+v, want the cleared counts %+v", cleared, before)
	}
	if after := mat.Stats(); after != (Stats{}) {
		t.Errorf("counters not cleared: %+v", after)
	}
}

func TestSolverHealthResetSwapSemantics(t *testing.T) {
	var h SolverHealth
	h.record(&xbar.BatchReport{
		Outcomes:  make([]xbar.ItemOutcome, 4),
		Recovered: 1,
		Failed:    2,
	})
	before := h.Counts()
	if before.Batches != 1 || before.Items != 4 || before.Recovered != 1 ||
		before.Failed != 2 {
		t.Fatalf("unexpected counts: %+v", before)
	}
	if again := h.Counts(); again != before {
		t.Errorf("Counts read cleared counters: %+v != %+v", again, before)
	}
	if cleared := h.Reset(); cleared != before {
		t.Errorf("Reset returned %+v, want %+v", cleared, before)
	}
	if after := h.Counts(); after != (SolverHealthCounts{}) {
		t.Errorf("counters not cleared: %+v", after)
	}
}

// An MVM must land in the process-wide registry: call count, latency
// and per-tile latency histograms, and the hardware-event mirrors.
func TestMVMRecordsObsMetrics(t *testing.T) {
	before := obs.Snapshot()

	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(47, 20, 12, 4)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := mat.MVM(x); err != nil {
			t.Fatal(err)
		}
	}

	after := obs.Snapshot()
	if d := after.Counters["funcsim.mvm.calls"] - before.Counters["funcsim.mvm.calls"]; d != 3 {
		t.Errorf("MVM call counter moved by %d, want 3", d)
	}
	if d := after.Histograms["funcsim.mvm.latency_seconds"].Count - before.Histograms["funcsim.mvm.latency_seconds"].Count; d != 3 {
		t.Errorf("MVM latency histogram moved by %d, want 3", d)
	}
	tr, tc, _ := mat.Tiles()
	wantTiles := int64(3 * tr * tc)
	if d := after.Histograms["funcsim.tile.latency_seconds"].Count - before.Histograms["funcsim.tile.latency_seconds"].Count; d != wantTiles {
		t.Errorf("tile latency histogram moved by %d, want %d", d, wantTiles)
	}
	if d := after.Counters["funcsim.mvm.crossbar_ops"] - before.Counters["funcsim.mvm.crossbar_ops"]; d <= 0 {
		t.Errorf("crossbar-op mirror moved by %d, want > 0", d)
	}
	if d := after.Counters["funcsim.mvm.rows"] - before.Counters["funcsim.mvm.rows"]; d != int64(3*x.Rows) {
		t.Errorf("MVM row mirror moved by %d, want %d", d, 3*x.Rows)
	}
	// The first MVM builds the run, later ones hit the freelist.
	hits := after.Counters["funcsim.run.freelist_hits"] - before.Counters["funcsim.run.freelist_hits"]
	misses := after.Counters["funcsim.run.freelist_misses"] - before.Counters["funcsim.run.freelist_misses"]
	if misses < 1 || hits < 2 {
		t.Errorf("freelist counters hits=%d misses=%d, want ≥2 hits and ≥1 miss", hits, misses)
	}
	// Registry mirrors and per-matrix counters must agree on the work.
	if got := mat.Stats().CrossbarOps; got != after.Counters["funcsim.mvm.crossbar_ops"]-before.Counters["funcsim.mvm.crossbar_ops"] {
		t.Errorf("matrix counters (%d crossbar ops) disagree with registry delta", got)
	}
}

// End-to-end: a small circuit-model funcsim run must leave nonzero
// solver metrics (Newton iterations from the crossbar solves) and tile
// metrics in one registry snapshot — the wiring the metrics endpoint
// exposes.
func TestEndToEndRunPopulatesSolverAndTileMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit solves are slow")
	}
	before := obs.Snapshot()

	cfg := exactConfig(4, 4)
	cfg.ADCBits = 12
	cfg.Xbar.BatchWorkers = 1
	eng, err := NewEngine(cfg, Circuit{Cfg: cfg.Xbar, Health: &SolverHealth{}})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(53, 4, 4, 2)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}

	after := obs.Snapshot()
	if d := after.Histograms["xbar.solver.newton_iters"].Count - before.Histograms["xbar.solver.newton_iters"].Count; d <= 0 {
		t.Errorf("Newton iteration histogram moved by %d, want > 0", d)
	}
	if d := after.Histograms["funcsim.tile.latency_seconds"].Count - before.Histograms["funcsim.tile.latency_seconds"].Count; d <= 0 {
		t.Errorf("tile latency histogram moved by %d, want > 0", d)
	}
	if d := after.Counters["xbar.solver.solves"] - before.Counters["xbar.solver.solves"]; d <= 0 {
		t.Errorf("solve counter moved by %d, want > 0", d)
	}
}

// Forward must time every layer and record the precomputed span names.
func TestForwardRecordsLayerMetrics(t *testing.T) {
	before := obs.Snapshot()

	r := linalg.NewRNG(17)
	net := buildTinyCNN(r)
	cfg := exactConfig(8, 8)
	cfg.Weight = quant.FxP{Bits: 16, Frac: 12}
	cfg.Act = quant.FxP{Bits: 16, Frac: 12}
	cfg.StreamBits, cfg.SliceBits = 4, 4
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(2, 36)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	if _, err := sim.Forward(x); err != nil {
		t.Fatal(err)
	}

	after := obs.Snapshot()
	// Residual bodies are Sims, so the forward histogram moves at least
	// twice (outer pass + body pass) and layers at least len(layers).
	if d := after.Histograms["funcsim.forward.latency_seconds"].Count - before.Histograms["funcsim.forward.latency_seconds"].Count; d < 2 {
		t.Errorf("forward latency histogram moved by %d, want ≥ 2", d)
	}
	if d := after.Histograms["funcsim.forward.layer_seconds"].Count - before.Histograms["funcsim.forward.layer_seconds"].Count; d < int64(len(sim.layers)) {
		t.Errorf("layer latency histogram moved by %d, want ≥ %d", d, len(sim.layers))
	}
	spans := obs.Default().Spans()
	found := false
	for _, ev := range spans {
		if ev.Name == sim.spanNames[0] {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no span named %q in trace ring (%d spans)", sim.spanNames[0], len(spans))
	}
}

// Layer spans must carry stable, descriptive names fixed at lowering.
func TestSpanNamesPrecomputed(t *testing.T) {
	r := linalg.NewRNG(23)
	net := nn.NewSequential(
		nn.NewLinear(8, 4, true, r),
		nn.NewReLU(),
	)
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"funcsim.layer.00.linear", "funcsim.layer.01.digital"}
	if len(sim.spanNames) != len(want) {
		t.Fatalf("span names %v, want %v", sim.spanNames, want)
	}
	for i := range want {
		if sim.spanNames[i] != want[i] {
			t.Errorf("spanNames[%d] = %q, want %q", i, sim.spanNames[i], want[i])
		}
	}
}
