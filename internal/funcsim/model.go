// Package funcsim is the functional simulator of Section 5 of the
// paper: it executes DNN inference the way a crossbar accelerator
// would — convolutions unrolled into repeated MVMs (iterative-mvm),
// weight matrices partitioned onto fixed-size crossbars (tiling), and
// operands processed digit-serially (bit-slicing into input streams
// and weight slices) with ADC quantization and shift-and-add merging.
//
// The analog behaviour of each crossbar is pluggable through the Model
// interface; the package ships four implementations matching the
// paper's simulation modes:
//
//   - Ideal: exact analog MVM (the "Ideal FxP" baseline),
//   - Analytical: linear parasitic distortion via a precomputed
//     distortion matrix (the paper's baseline model),
//   - GENIEx: the trained neural surrogate from package core,
//   - Circuit: the full non-linear solver (HSPICE stand-in; slow,
//     used for validation).
package funcsim

import (
	"context"
	"fmt"
	"sync"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/obs"
	"geniex/internal/xbar"
)

// Model produces per-tile analog MVM evaluators. NewTile is called
// once per (tile, weight-slice) during lowering, so implementations
// can do expensive per-conductance-matrix work there.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// NewTile prepares an evaluator for a crossbar programmed with g
	// (Rows×Cols physical conductances).
	NewTile(g *linalg.Dense) (Tile, error)
}

// Tile computes analog output currents for batches of drive voltages.
// The MVM pipeline invokes tiles from multiple worker goroutines, so
// implementations must be safe for concurrent Currents calls.
type Tile interface {
	// Currents maps a batch of voltage vectors (batch×Rows, volts) to
	// output currents (batch×Cols, amperes).
	Currents(v *linalg.Dense) (*linalg.Dense, error)
}

// intoTile is the allocation-free fast path: tiles that implement it
// compute into a caller-owned buffer instead of allocating the result.
// Every in-package tile implements it; the MVM pipeline prefers it and
// falls back to Currents plus a copy for external implementations.
type intoTile interface {
	CurrentsInto(dst, v *linalg.Dense) error
}

// ctxTile is the cancellation-aware fast path: tiles whose evaluation
// is expensive enough to be worth stopping mid-flight (the circuit
// model's batch solves) implement it, and the MVM pipeline prefers it
// whenever the caller supplied a context. Cheap tiles (ideal,
// analytical, GENIEx) finish faster than a cancellation check is
// worth; they fall through to the uncancellable paths.
type ctxTile interface {
	CurrentsCtxInto(ctx context.Context, dst, v *linalg.Dense) error
}

// surrogateTile is implemented by tiles whose analog evaluation runs
// through the GENIEx neural surrogate. The engine hands them the
// per-input-block VContext so the dominant first-layer voltage matmul
// is computed once per block instead of once per (tile, slice, sign).
type surrogateTile interface {
	currentsVC(dst, v *linalg.Dense, vc *core.VContext) error
}

// surrogateModel exposes the core surrogate at the bottom of a model
// chain (wrappers forward to their inner model); nil when the chain
// has none. The engine uses it to decide whether building per-block
// voltage contexts is worthwhile.
type surrogateModel interface {
	surrogate() *core.Model
}

// surrogateOf walks a model chain for its core surrogate.
func surrogateOf(m Model) *core.Model {
	if sm, ok := m.(surrogateModel); ok {
		return sm.surrogate()
	}
	return nil
}

// currentsInto evaluates tile into dst through the fastest interface
// it implements: the shared-VContext surrogate path, the cancellable
// path (when ctx is non-nil), the caller-owned-buffer path, or plain
// Currents plus a copy.
func currentsInto(ctx context.Context, tile Tile, dst, v *linalg.Dense, vc *core.VContext) error {
	if vc != nil {
		if st, ok := tile.(surrogateTile); ok {
			return st.currentsVC(dst, v, vc)
		}
	}
	if ctx != nil {
		if ct, ok := tile.(ctxTile); ok {
			return ct.CurrentsCtxInto(ctx, dst, v)
		}
	}
	if it, ok := tile.(intoTile); ok {
		return it.CurrentsInto(dst, v)
	}
	out, err := tile.Currents(v)
	if err != nil {
		return err
	}
	if out.Rows != dst.Rows || out.Cols != dst.Cols {
		return fmt.Errorf("funcsim: tile returned %dx%d currents, expected %dx%d",
			out.Rows, out.Cols, dst.Rows, dst.Cols)
	}
	copy(dst.Data, out.Data)
	return nil
}

// Ideal is the error-free analog model.
type Ideal struct{}

// Name implements Model.
func (Ideal) Name() string { return "ideal" }

// NewTile implements Model.
func (Ideal) NewTile(g *linalg.Dense) (Tile, error) {
	return idealTile{g: g.Clone()}, nil
}

type idealTile struct{ g *linalg.Dense }

func (t idealTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	return linalg.MatMul(v, t.g), nil
}

// CurrentsInto stays on the calling goroutine: the pipeline already
// runs one tile task per worker, so nested fan-out would only add
// scheduling overhead and allocations.
func (t idealTile) CurrentsInto(dst, v *linalg.Dense) error {
	linalg.MatMulSerialInto(dst, v, t.g)
	return nil
}

// Analytical wraps the linear-parasitics distortion-matrix model.
type Analytical struct {
	Cfg xbar.Config
}

// Name implements Model.
func (Analytical) Name() string { return "analytical" }

// NewTile implements Model.
func (m Analytical) NewTile(g *linalg.Dense) (Tile, error) {
	a, err := xbar.NewAnalytical(m.Cfg, g)
	if err != nil {
		return nil, err
	}
	// Currents = V·Aᵀ for batches.
	return analyticalTile{at: a.Matrix().T()}, nil
}

type analyticalTile struct{ at *linalg.Dense }

func (t analyticalTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	return linalg.MatMul(v, t.at), nil
}

func (t analyticalTile) CurrentsInto(dst, v *linalg.Dense) error {
	linalg.MatMulSerialInto(dst, v, t.at)
	return nil
}

// GENIEx evaluates tiles through a trained core.Model surrogate.
type GENIEx struct {
	Model *core.Model
}

// Name implements Model.
func (GENIEx) Name() string { return "geniex" }

func (m GENIEx) surrogate() *core.Model { return m.Model }

// NewTile implements Model.
func (m GENIEx) NewTile(g *linalg.Dense) (Tile, error) {
	if g.Rows != m.Model.Cfg.Rows || g.Cols != m.Model.Cfg.Cols {
		return nil, fmt.Errorf("funcsim: GENIEx model is %dx%d, tile is %dx%d",
			m.Model.Cfg.Rows, m.Model.Cfg.Cols, g.Rows, g.Cols)
	}
	return &geniexTile{m: m.Model, g: g.Clone(), ctx: m.Model.NewGContext(g)}, nil
}

type geniexTile struct {
	m   *core.Model
	g   *linalg.Dense
	ctx *core.GContext

	// fR buffers are pooled per tile so concurrent workers evaluating
	// the same tile never share one and steady-state calls allocate
	// nothing.
	mu   sync.Mutex
	free []*linalg.Dense
}

func (t *geniexTile) getFR(rows int) *linalg.Dense {
	t.mu.Lock()
	var fr *linalg.Dense
	if n := len(t.free); n > 0 {
		fr = t.free[n-1]
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	return linalg.GrowDense(fr, rows, t.g.Cols)
}

func (t *geniexTile) putFR(fr *linalg.Dense) {
	t.mu.Lock()
	t.free = append(t.free, fr)
	t.mu.Unlock()
}

func (t *geniexTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	out := linalg.NewDense(v.Rows, t.g.Cols)
	if err := t.currentsVC(out, v, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *geniexTile) CurrentsInto(dst, v *linalg.Dense) error {
	return t.currentsVC(dst, v, nil)
}

func (t *geniexTile) currentsVC(dst, v *linalg.Dense, vc *core.VContext) error {
	if vc == nil {
		vc = t.m.NewVContext(v)
	}
	linalg.MatMulSerialInto(dst, v, t.g) // ideal currents
	fr := t.getFR(v.Rows)
	t.m.PredictVGInto(fr, vc, t.ctx)
	for b := 0; b < dst.Rows; b++ {
		drow, frow := dst.Row(b), fr.Row(b)
		for j, r := range frow {
			if r <= 0 {
				r = 1
			}
			drow[j] /= r
		}
	}
	t.putFR(fr)
	return nil
}

// SolverHealth aggregates circuit-solver outcomes across every tile
// and batch a Circuit model executes. Share one collector between the
// model and the reporting layer to surface solver-health counters in
// experiment output. Safe for concurrent use: each field is an obs
// counter, so a snapshot taken while batches are in flight is
// per-field consistent (each count is exact) but not cross-field
// consistent — a concurrent record may be half folded.
type SolverHealth struct {
	batches, items                          obs.Counter
	recovered, retried, failed, unconverged obs.Counter
}

// SolverHealthCounts is a snapshot of the collector.
type SolverHealthCounts struct {
	// Batches and Items count BatchSolve calls and batch items.
	Batches, Items int64
	// Recovered, Retried, Failed, Unconverged count items by outcome.
	Recovered, Retried, Failed, Unconverged int64
}

func (h *SolverHealth) record(rep *xbar.BatchReport) {
	h.batches.Inc()
	h.items.Add(int64(len(rep.Outcomes)))
	h.recovered.Add(int64(rep.Recovered))
	h.retried.Add(int64(rep.Retried))
	h.failed.Add(int64(rep.Failed))
	h.unconverged.Add(int64(rep.Unconverged))
}

// Counts returns a snapshot of the counters. It is read-only: reading
// never clears; use Reset to clear.
func (h *SolverHealth) Counts() SolverHealthCounts {
	return SolverHealthCounts{
		Batches:     h.batches.Load(),
		Items:       h.items.Load(),
		Recovered:   h.recovered.Load(),
		Retried:     h.retried.Load(),
		Failed:      h.failed.Load(),
		Unconverged: h.unconverged.Load(),
	}
}

// Reset atomically clears the counters and returns the counts it
// cleared, matching the repo-wide snapshot-and-clear reset convention
// (see Matrix.ResetStats).
func (h *SolverHealth) Reset() SolverHealthCounts {
	return SolverHealthCounts{
		Batches:     h.batches.Swap(),
		Items:       h.items.Swap(),
		Recovered:   h.recovered.Swap(),
		Retried:     h.retried.Swap(),
		Failed:      h.failed.Swap(),
		Unconverged: h.unconverged.Swap(),
	}
}

// String summarizes the counters.
func (c SolverHealthCounts) String() string {
	return fmt.Sprintf("solver health: %d batches, %d items (%d recovered, %d retried, %d failed, %d unconverged)",
		c.Batches, c.Items, c.Recovered, c.Retried, c.Failed, c.Unconverged)
}

// Circuit runs the full non-linear solver per tile — the ground-truth
// mode. It is orders of magnitude slower than the other models and
// exists for validation on small workloads.
//
// When the functional simulator parallelizes across tiles (the default
// MVM pipeline), set Cfg.BatchWorkers = 1 so each tile solve stays on
// its worker instead of fanning out a second time.
type Circuit struct {
	Cfg xbar.Config
	// Degraded selects failed-batch-item handling: false (the default)
	// fails the MVM when any item fails even after the solver's retry
	// ladder or is accepted without convergence; true zeroes the failed
	// items' currents, keeps best-effort ones, and continues, so one
	// bad input no longer kills a whole evaluation. Either way the
	// outcome is counted in Health.
	Degraded bool
	// Health, when non-nil, collects solver outcomes across all tiles
	// created from this model (value copies share the pointer).
	Health *SolverHealth
}

// Name implements Model.
func (Circuit) Name() string { return "circuit" }

// NewTile implements Model. The returned tile keeps a persistent pool
// of programmed Crossbar instances (an xbar.BatchSolver), so the
// netlist-assembly and conductance-programming cost is paid once per
// tile lifetime instead of once per worker per Currents call.
func (m Circuit) NewTile(g *linalg.Dense) (Tile, error) {
	solver, err := xbar.NewBatchSolver(m.Cfg, g)
	if err != nil {
		return nil, err
	}
	return &circuitTile{solver: solver, cols: g.Cols, degraded: m.Degraded, health: m.Health}, nil
}

type circuitTile struct {
	solver   *xbar.BatchSolver
	cols     int
	degraded bool
	health   *SolverHealth

	// Batch reports are pooled per tile, like geniexTile's fR buffers,
	// so steady-state calls do not allocate a per-item report.
	mu   sync.Mutex
	free []*xbar.BatchReport
}

func (t *circuitTile) getReport() *xbar.BatchReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		rep := t.free[n-1]
		t.free = t.free[:n-1]
		return rep
	}
	return &xbar.BatchReport{}
}

func (t *circuitTile) putReport(rep *xbar.BatchReport) {
	t.mu.Lock()
	t.free = append(t.free, rep)
	t.mu.Unlock()
}

func (t *circuitTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	out := linalg.NewDense(v.Rows, t.cols)
	if err := t.CurrentsInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *circuitTile) CurrentsInto(dst, v *linalg.Dense) error {
	return t.CurrentsCtxInto(nil, dst, v)
}

// CurrentsCtxInto implements ctxTile: the batch solve aborts at the
// next solver update once ctx is done, so a revoked serving deadline
// stops circuit work instead of letting it run to completion.
func (t *circuitTile) CurrentsCtxInto(ctx context.Context, dst, v *linalg.Dense) error {
	rep := t.getReport()
	defer t.putReport(rep)
	if err := t.solver.SolveReportIntoContext(ctx, rep, dst, v); err != nil {
		return err
	}
	if t.health != nil {
		t.health.record(rep)
	}
	if !t.degraded {
		if rep.Failed > 0 {
			return fmt.Errorf("funcsim: circuit tile: %d of %d batch items failed: %w",
				rep.Failed, len(rep.Outcomes), rep.FirstError())
		}
		if !rep.AllOK() {
			return fmt.Errorf("funcsim: circuit tile: %w", rep.Err())
		}
	}
	return nil
}
