package funcsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/nonideal"
	"geniex/internal/obs"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// Config gathers the architecture parameters of the functional
// simulator (Table 3 of the paper).
type Config struct {
	// Xbar is the crossbar design point; its Rows×Cols is the tile
	// size.
	Xbar xbar.Config
	// Weight and Act are the fixed-point formats of weights and
	// activations.
	Weight, Act quant.FxP
	// StreamBits and SliceBits are the input-stream and weight-slice
	// digit widths.
	StreamBits, SliceBits int
	// ADCBits sets the converter resolution at each bit line.
	ADCBits int
	// Acc is the saturating output accumulator.
	Acc quant.Acc
	// Workers bounds how many (tileRow, tileCol) tile tasks of one MVM
	// execute concurrently. 0 (the default) uses the shared worker pool
	// at full width (GOMAXPROCS); 1 runs the whole MVM serially on the
	// calling goroutine with no goroutines at all; n ≥ 2 keeps at most
	// n tasks in flight. The merge into the saturating accumulator is
	// always serial and in fixed tile order, so MVM results are
	// bit-identical at every setting.
	Workers int
	// ProbeRate enables the online fidelity probe: every ProbeRate-th
	// tile task samples its inputs and shadow-solves them through the
	// circuit solver on a background goroutine (see Probe). 0 (the
	// default) disables probing entirely — the hot path then pays one
	// nil check per tile task and keeps no conductance copies.
	ProbeRate int
	// Scenario, when non-nil and non-empty, perturbs every lowered
	// tile's conductances with its non-ideality stack (stuck-at faults,
	// programming variation, drift, ...). The perturbation happens once
	// at Lower time, on the per-slice conductance matrices every analog
	// model is built from, so all fidelity tiers — ideal, analytical,
	// GENIEx, circuit — and the fidelity probe see the same faulted
	// array. Sub-seeds are position-keyed per (tile, slice, sign), so a
	// lowering is bit-reproducible from Scenario.Seed at any worker
	// count.
	Scenario *nonideal.Scenario
	// Swappable enables Engine.SwapModel: lowered matrices retain their
	// programmed conductances (same retention the probe needs) so a new
	// analog model can be rebuilt over the identical faulted array and
	// hot-swapped under live MVM traffic. Off by default — retention
	// costs one conductance copy per physical crossbar.
	Swappable bool
}

// DefaultConfig returns the paper's nominal architecture: 16-bit
// (13 fractional) weights and activations, 4-bit streams and slices,
// 14-bit ADC, 32-bit accumulator with 24 fractional bits.
func DefaultConfig() Config {
	return Config{
		Xbar:       xbar.DefaultConfig(),
		Weight:     quant.FxP{Bits: 16, Frac: 13},
		Act:        quant.FxP{Bits: 16, Frac: 13},
		StreamBits: 4,
		SliceBits:  4,
		ADCBits:    14,
		Acc:        quant.Acc{Bits: 32, Frac: 24},
	}
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	if err := c.Xbar.Validate(); err != nil {
		return err
	}
	if err := c.Weight.Validate(); err != nil {
		return err
	}
	if err := c.Act.Validate(); err != nil {
		return err
	}
	if c.StreamBits < 1 || c.StreamBits > c.Act.Bits {
		return fmt.Errorf("funcsim: stream width %d invalid for %d-bit activations", c.StreamBits, c.Act.Bits)
	}
	if c.SliceBits < 1 || c.SliceBits > c.Weight.Bits {
		return fmt.Errorf("funcsim: slice width %d invalid for %d-bit weights", c.SliceBits, c.Weight.Bits)
	}
	if c.ADCBits < 1 || c.ADCBits > 40 {
		return fmt.Errorf("funcsim: ADC bits %d out of range", c.ADCBits)
	}
	if c.Acc.Bits < 2 || c.Acc.Bits > 62 || c.Acc.Frac < 0 || c.Acc.Frac >= c.Acc.Bits {
		return fmt.Errorf("funcsim: accumulator %d.%d invalid", c.Acc.Bits, c.Acc.Frac)
	}
	if c.Workers < 0 {
		return fmt.Errorf("funcsim: Workers must be non-negative, got %d", c.Workers)
	}
	if c.ProbeRate < 0 {
		return fmt.Errorf("funcsim: ProbeRate must be non-negative, got %d", c.ProbeRate)
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	return nil
}

// streamDigits returns how many input streams cover one activation
// magnitude (Bits−1 bits: the engine quantizes symmetrically and keeps
// the sign in the differential pass structure).
func (c Config) streamDigits() int { return quant.NumDigits(c.Act.Bits-1, c.StreamBits) }

// sliceDigits returns how many weight slices cover one weight
// magnitude.
func (c Config) sliceDigits() int { return quant.NumDigits(c.Weight.Bits-1, c.SliceBits) }

// Engine lowers real-valued weight matrices onto crossbar tiles and
// executes MVMs through a pluggable analog model.
//
// Signed arithmetic uses differential sign-magnitude encoding, the
// scheme real crossbar accelerators use: each weight block maps to a
// positive and (when needed) a negative crossbar holding the
// magnitudes of the corresponding weights, and the digital periphery
// subtracts the two column outputs. Inputs are likewise split into
// positive and negative magnitude passes. This preserves the high
// sparsity of bit-sliced DNN tensors (zero weight → Goff, zero
// activation → 0 V), which the paper's dataset generation explicitly
// models, and it keeps analog error proportional to the actual signal
// instead of a full-scale offset.
type Engine struct {
	cfg    Config
	retain bool // keep lowered conductances (probe and/or swap support)

	// probe is the online fidelity monitor, nil unless
	// Config.ProbeRate > 0.
	probe *Probe

	// mu guards the live-model identity and the lowered-matrix list.
	// The model and its surrogate are deliberately unexported and only
	// reachable through accessors: under Config.Swappable a background
	// calibrator may replace them at any moment, so direct struct reads
	// would race. version counts published models; the model the engine
	// was constructed with is version 1, and every successful SwapModel
	// increments it. matrixIDs numbers lowered matrices so the probe's
	// per-tile aggregates stay distinct across matrices.
	mu        sync.Mutex
	model     Model
	sur       *core.Model // GENIEx surrogate of the model chain, if any
	version   int64
	mats      []*Matrix // swap targets; tracked only when Swappable
	matrixIDs int
}

// NewEngine creates an engine. The model's tile size must match
// cfg.Xbar. With Config.ProbeRate > 0 the engine owns a fidelity
// Probe (and its background goroutine); call Close when done with
// such an engine.
func NewEngine(cfg Config, model Model) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		retain:  cfg.ProbeRate > 0 || cfg.Swappable,
		model:   model,
		sur:     surrogateOf(model),
		version: 1,
	}
	if cfg.ProbeRate > 0 {
		e.probe = newProbe(cfg.Xbar, cfg.ProbeRate, DefaultProbeQueue)
	}
	return e, nil
}

// Config returns the engine's architecture parameters.
func (e *Engine) Config() Config { return e.cfg }

// ModelName reports which analog model the engine uses. It is safe
// under concurrent SwapModel calls.
func (e *Engine) ModelName() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.model.Name()
}

// ModelVersion reports the engine's current model version: 1 for the
// model the engine was constructed with, incremented by every
// successful SwapModel. It is safe under concurrent SwapModel calls.
func (e *Engine) ModelVersion() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// Swappable reports whether the engine was configured for model
// hot-swap (Config.Swappable).
func (e *Engine) Swappable() bool { return e.cfg.Swappable }

// Probe returns the engine's fidelity probe, or nil when probing is
// disabled.
func (e *Engine) Probe() *Probe { return e.probe }

// Close releases the engine's background resources (the probe's
// worker goroutine). Engines without a probe need no Close; calling
// it anyway is a no-op, and Close is idempotent.
func (e *Engine) Close() {
	if e.probe != nil {
		e.probe.Close()
	}
}

// loweredTile is one (tileRow, tileCol) block: the positive-magnitude
// crossbars (one per weight slice) and, if the block has any negative
// weights, the negative-magnitude crossbars.
type loweredTile struct {
	pos []Tile
	neg []Tile // nil when the block is all-non-negative
}

// tileConds retains the per-slice conductance matrices one block's
// tiles were programmed with — kept when the engine carries a fidelity
// probe (which shadow-solves them) or is Swappable (a new model is
// rebuilt from them). The matrices are immutable after lowering and
// independent of the model version, so probe jobs and calibrators
// reference them without copying and hot-swaps never invalidate them.
type tileConds struct {
	pos []*linalg.Dense
	neg []*linalg.Dense // nil when the block is all-non-negative
}

// tileSet is one published model version of a lowered matrix: the
// model tiles, the surrogate they share voltage contexts with, and an
// in-flight MVM count. Each MVM pins exactly one tileSet for its whole
// run (see Matrix.acquireTiles), so tiles and voltage contexts are
// always version-coherent; SwapModel retires a set only after its
// in-flight count drains to zero.
type tileSet struct {
	version int64
	model   Model
	sur     *core.Model
	tiles   [][]loweredTile // [tileRow][tileCol]

	inflight atomic.Int64
}

// Matrix is a weight matrix lowered onto crossbar tiles, ready to
// execute MVMs. A Matrix is safe for concurrent MVM calls; the
// hardware-event counters are atomic (see Stats).
type Matrix struct {
	eng      *Engine
	in, out  int
	tileRows int
	tileCols int

	// tset is the live model version; conds the retained per-block
	// conductances (nil unless the engine retains them), shared by
	// every version.
	tset  atomic.Pointer[tileSet]
	conds [][]tileConds

	crossbars int

	// Digital back-conversion constants, fixed per design point.
	adc       quant.ADC
	scale, kg float64

	// probe mirrors the engine's fidelity probe (nil when disabled);
	// id is the engine-assigned ordinal used in per-tile probe keys.
	probe *Probe
	id    int

	// nonideal aggregates what Config.Scenario did to this matrix's
	// crossbars at lowering; the zero report means a clean lowering.
	nonideal nonideal.Report

	stats matrixStats

	// runs is the freelist of pooled per-MVM scratch state; see mvmRun.
	runMu sync.Mutex
	runs  []*mvmRun
}

// Lower maps a real-valued in×out weight matrix onto crossbar tiles:
// symmetric quantization → sign-magnitude split → slice digits →
// conductances.
func (e *Engine) Lower(w *linalg.Dense) (*Matrix, error) {
	cfg := e.cfg
	n, mcols := cfg.Xbar.Rows, cfg.Xbar.Cols
	in, out := w.Rows, w.Cols
	kw := cfg.sliceDigits()
	wmax := float64(int64(1)<<cfg.SliceBits) - 1
	amax := float64(int64(1)<<cfg.StreamBits) - 1

	e.mu.Lock()
	model, version := e.model, e.version
	lm := &Matrix{
		eng: e, in: in, out: out,
		tileRows: (in + n - 1) / n,
		tileCols: (out + mcols - 1) / mcols,
		probe:    e.probe,
		id:       e.matrixIDs,
	}
	e.matrixIDs++
	e.mu.Unlock()
	lm.adc = quant.ADC{
		Bits:      cfg.ADCBits,
		FullScale: float64(n) * cfg.Xbar.Vsupply * cfg.Xbar.Gon(),
	}
	// Digital back-conversion constants: the ideal column current is
	//   I = (Vmax·ΔG)/(amax·wmax) · Σ dA·dW  +  Vmax·Goff/amax · Σ dA,
	// so p = I·scale − kg·Σ dA recovers the integer digit dot product.
	lm.scale = amax * wmax / (cfg.Xbar.Vsupply * (cfg.Xbar.Gon() - cfg.Xbar.Goff()))
	lm.kg = cfg.Xbar.Goff() * wmax / (cfg.Xbar.Gon() - cfg.Xbar.Goff())
	conds := make([][]tileConds, lm.tileRows)
	for tr := range conds {
		conds[tr] = make([]tileConds, lm.tileCols)
		for tc := range conds[tr] {
			posG := make([]*linalg.Dense, kw)
			negG := make([]*linalg.Dense, kw)
			for l := 0; l < kw; l++ {
				posG[l] = linalg.NewDense(n, mcols)
				negG[l] = linalg.NewDense(n, mcols)
				linalg.Fill(posG[l].Data, cfg.Xbar.Goff())
				linalg.Fill(negG[l].Data, cfg.Xbar.Goff())
			}
			hasNeg := false
			for i := 0; i < n; i++ {
				for j := 0; j < mcols; j++ {
					gi, gj := tr*n+i, tc*mcols+j
					var q int64 // padding encodes weight 0
					if gi < in && gj < out {
						q = cfg.Weight.QuantizeSymmetric(w.At(gi, gj))
					}
					mag := uint64(q)
					dst := posG
					if q < 0 {
						mag = uint64(-q)
						dst = negG
						hasNeg = true
					}
					for l, d := range quant.Digits(mag, cfg.SliceBits, kw) {
						dst[l].Set(i, j, cfg.Xbar.Goff()+float64(d)/wmax*(cfg.Xbar.Gon()-cfg.Xbar.Goff()))
					}
				}
			}
			// Non-ideality injection: perturb the programmed conductances
			// before any model tile is built, so every tier (and the
			// probe's shadow solves) runs on the same faulted array.
			// Sub-seeds are position-keyed, making the lowering
			// reproducible regardless of tile order or worker count.
			if sc := cfg.Scenario; sc.Enabled() {
				env := xbar.EnvFromConfig(cfg.Xbar)
				for l := 0; l < kw; l++ {
					rep, err := sc.ApplyTile(posG[l], env, tr, tc, l, 0)
					if err != nil {
						return nil, fmt.Errorf("funcsim: scenario on tile (%d,%d) slice %d: %w", tr, tc, l, err)
					}
					lm.nonideal.Merge(rep)
					if hasNeg {
						rep, err = sc.ApplyTile(negG[l], env, tr, tc, l, 1)
						if err != nil {
							return nil, fmt.Errorf("funcsim: scenario on tile (%d,%d) slice %d neg: %w", tr, tc, l, err)
						}
						lm.nonideal.Merge(rep)
					}
				}
			}
			cd := &conds[tr][tc]
			cd.pos = posG
			lm.crossbars += kw
			if hasNeg {
				cd.neg = negG
				lm.crossbars += kw
			}
		}
	}
	ts, err := buildTileSet(model, version, conds)
	if err != nil {
		return nil, err
	}
	lm.tset.Store(ts)
	if e.retain {
		lm.conds = conds
	}
	if e.cfg.Swappable {
		e.mu.Lock()
		e.mats = append(e.mats, lm)
		e.mu.Unlock()
	}
	return lm, nil
}

// buildTileSet programs one model version over a matrix's retained
// conductances: every per-block, per-slice crossbar is rebuilt through
// model.NewTile. It is all-or-nothing — any tile error leaves no
// partially published state.
func buildTileSet(model Model, version int64, conds [][]tileConds) (*tileSet, error) {
	ts := &tileSet{version: version, model: model, sur: surrogateOf(model)}
	ts.tiles = make([][]loweredTile, len(conds))
	for tr := range conds {
		ts.tiles[tr] = make([]loweredTile, len(conds[tr]))
		for tc := range conds[tr] {
			cd := &conds[tr][tc]
			lt := &ts.tiles[tr][tc]
			var err error
			if lt.pos, err = buildTiles(model, cd.pos); err != nil {
				return nil, fmt.Errorf("funcsim: lowering tile (%d,%d): %w", tr, tc, err)
			}
			if cd.neg != nil {
				if lt.neg, err = buildTiles(model, cd.neg); err != nil {
					return nil, fmt.Errorf("funcsim: lowering tile (%d,%d) neg: %w", tr, tc, err)
				}
			}
		}
	}
	return ts, nil
}

// NonIdeal reports what the configured non-ideality scenario did to
// this matrix's crossbars at lowering time; the zero report means the
// lowering was clean (no scenario, or an empty stack).
func (m *Matrix) NonIdeal() nonideal.Report { return m.nonideal }

func buildTiles(model Model, gs []*linalg.Dense) ([]Tile, error) {
	tiles := make([]Tile, len(gs))
	for l, g := range gs {
		t, err := model.NewTile(g)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", l, err)
		}
		tiles[l] = t
	}
	return tiles, nil
}

// acquireTiles pins the matrix's live tileSet for one MVM run. The
// recheck after the in-flight increment closes the race with a
// concurrent SwapModel: if the set was replaced between load and
// increment, the increment may have landed on an already-drained set,
// so release it and retry on the new one. SwapModel's drain therefore
// never misses an MVM that is about to start on a retired set.
func (m *Matrix) acquireTiles() *tileSet {
	for {
		ts := m.tset.Load()
		ts.inflight.Add(1)
		if m.tset.Load() == ts {
			return ts
		}
		ts.inflight.Add(-1)
	}
}

// SwapModel atomically replaces the analog model of every matrix
// lowered from this engine, publishing a new model version: each
// matrix's retained conductances are re-programmed through the new
// model (all matrices rebuilt before any is published, so a tile error
// leaves the engine fully on the old version), the new tile sets are
// swapped in atomically, and the old version is retired only after its
// in-flight MVMs drain. MVMs never block on a swap and never observe a
// mixed version within one call; a multi-layer forward pass that
// overlaps the swap may evaluate earlier layers on the old version and
// later ones on the new, each layer internally coherent.
//
// The engine must have been built with Config.Swappable. The new model
// must accept the same tile geometry (its NewTile sees the retained
// Rows×Cols conductance matrices). Returns the published version.
func (e *Engine) SwapModel(model Model) (int64, error) {
	if !e.cfg.Swappable {
		return 0, fmt.Errorf("funcsim: SwapModel on an engine without Config.Swappable")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	version := e.version + 1
	fresh := make([]*tileSet, len(e.mats))
	for i, m := range e.mats {
		ts, err := buildTileSet(model, version, m.conds)
		if err != nil {
			return 0, fmt.Errorf("funcsim: swap to %q: matrix %d: %w", model.Name(), m.id, err)
		}
		fresh[i] = ts
	}
	old := make([]*tileSet, len(e.mats))
	for i, m := range e.mats {
		old[i] = m.tset.Swap(fresh[i])
	}
	for _, ts := range old {
		for spins := 0; ts.inflight.Load() > 0; spins++ {
			if spins < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	e.model, e.sur, e.version = model, surrogateOf(model), version
	return version, nil
}

// In returns the logical input dimension of the lowered matrix.
func (m *Matrix) In() int { return m.in }

// Out returns the logical output dimension.
func (m *Matrix) Out() int { return m.out }

// Tiles returns the (tileRows, tileCols, slices-per-sign) counts.
func (m *Matrix) Tiles() (tr, tc, slices int) {
	return m.tileRows, m.tileCols, m.eng.cfg.sliceDigits()
}

// Crossbars returns the number of physical crossbars the matrix
// occupies (positive + negative, all slices).
func (m *Matrix) Crossbars() int { return m.crossbars }

// inputBlock holds the digit-serial form of one tile row's activation
// block for a whole batch and one sign.
type inputBlock struct {
	vb       *linalg.Dense // batch·ka × n stream voltages
	digitSum []int64       // per (b, k): Σ_i digit
	any      bool          // any non-zero digit at all
	// vctx is the block's shared surrogate voltage context: &vc when
	// the run's model chain has a GENIEx surrogate and the block is
	// live, nil otherwise. vc's buffers are refilled on every MVM.
	vctx *core.VContext
	vc   core.VContext
}

// runBlock guards the lazily quantized input blocks of one tile row:
// the first task of the row quantizes, later tasks of the same row
// reuse the result.
type runBlock struct {
	mu     sync.Mutex
	done   bool
	blocks [2]inputBlock // positive / negative magnitude pass
}

// mvmTask is the unit of parallel work: all four differential passes
// of one (tileRow, tileCol) block, accumulated into an exact int64
// partial so the order tasks complete in cannot affect the result.
type mvmTask struct {
	tr, tc int
	dot    []int64       // batch×tileCols signed shift-and-add partials
	curr   *linalg.Dense // batch·ka × cols tile-current scratch
	stats  Stats         // task-local counters, folded after the run

	// probeArm marks this task as sampled by the fidelity probe; the
	// first slice evaluation with a live input block offers itself and
	// disarms.
	probeArm bool
}

// mvmRun is the pooled per-MVM scratch state. Matrices keep finished
// runs on a freelist so steady-state MVMs allocate nothing.
type mvmRun struct {
	m      *Matrix
	ts     *tileSet        // the model version pinned for this run
	ctx    context.Context // nil unless the MVM came in via MVMIntoContext
	x      *linalg.Dense
	batch  int
	accOut []int64
	blocks []runBlock
	tasks  []mvmTask
	sem    chan struct{} // in-flight bound when Config.Workers ≥ 2

	wg     sync.WaitGroup
	failMu sync.Mutex
	failed bool
	err    error
}

// mvmPool is the package-wide persistent worker pool. Spawning
// goroutines per MVM call would allocate closures and stacks on every
// invocation; a fixed pool keeps the steady state allocation-free and
// bounds total compute concurrency at GOMAXPROCS regardless of how
// many matrices execute at once.
var (
	mvmPoolOnce sync.Once
	mvmPoolCh   chan mvmTaskRef
)

type mvmTaskRef struct {
	run *mvmRun
	idx int
}

func mvmPool() chan<- mvmTaskRef {
	mvmPoolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
		mvmPoolCh = make(chan mvmTaskRef, 8*n)
		for i := 0; i < n; i++ {
			go func() {
				for ref := range mvmPoolCh {
					ref.run.execTask(ref.idx)
				}
			}()
		}
	})
	return mvmPoolCh
}

func (r *mvmRun) setErr(err error) {
	r.failMu.Lock()
	if !r.failed {
		r.failed = true
		r.err = err
	}
	r.failMu.Unlock()
}

func (r *mvmRun) hasFailed() bool {
	r.failMu.Lock()
	f := r.failed
	r.failMu.Unlock()
	return f
}

// execTask is the pool-side wrapper: it releases the in-flight slot,
// converts panics into run errors (a dead pool worker would hang every
// later MVM), and signals completion.
func (r *mvmRun) execTask(idx int) {
	defer func() {
		if p := recover(); p != nil {
			r.setErr(fmt.Errorf("funcsim: MVM tile task (%d,%d) panicked: %v",
				r.tasks[idx].tr, r.tasks[idx].tc, p))
		}
		if r.sem != nil {
			<-r.sem
		}
		r.wg.Done()
	}()
	r.doTask(idx)
}

// doTask computes the exact int64 partial of one (tileRow, tileCol)
// block: quantize the row's input block if nobody has yet, then run
// the four differential passes.
func (r *mvmRun) doTask(idx int) {
	if r.hasFailed() {
		return
	}
	if r.ctx != nil {
		if cerr := r.ctx.Err(); cerr != nil {
			r.setErr(fmt.Errorf("funcsim: MVM cancelled: %w", cerr))
			return
		}
	}
	start := time.Now()
	defer mTileLatency.ObserveSince(start)
	// Tile spans are traced-request-only: the TraceContext check keeps
	// the untraced steady state (benchmarks, training) free of the
	// context allocation StartSpan would add.
	ctx := r.ctx
	if obs.TraceFromContext(ctx).Valid() {
		var tspan obs.Span
		ctx, tspan = obs.StartSpan(ctx, "funcsim.tile")
		defer tspan.End()
	}
	t := &r.tasks[idx]
	rb := &r.blocks[t.tr]
	rb.mu.Lock()
	if !rb.done {
		r.m.quantizeBlockInto(rb, r.x, t.tr, r.ts.sur)
		rb.done = true
	}
	rb.mu.Unlock()

	for i := range t.dot {
		t.dot[i] = 0
	}
	t.stats = Stats{}
	t.probeArm = r.m.probe != nil && r.m.probe.tick()
	lt := &r.ts.tiles[t.tr][t.tc]
	var posG, negG []*linalg.Dense
	if r.m.conds != nil {
		cd := &r.m.conds[t.tr][t.tc]
		posG, negG = cd.pos, cd.neg
	}
	if err := r.pass(ctx, t, lt.pos, posG, &rb.blocks[0], 1); err != nil {
		r.setErr(err)
		return
	}
	if err := r.pass(ctx, t, lt.neg, negG, &rb.blocks[0], -1); err != nil {
		r.setErr(err)
		return
	}
	if err := r.pass(ctx, t, lt.pos, posG, &rb.blocks[1], -1); err != nil {
		r.setErr(err)
		return
	}
	if err := r.pass(ctx, t, lt.neg, negG, &rb.blocks[1], 1); err != nil {
		r.setErr(err)
		return
	}
}

// pass runs one differential pass (one sign of inputs against one sign
// of weights) of a tile task: evaluate every weight slice's crossbar,
// ADC-convert, and shift-and-add into the task's exact partial. gs
// holds the slices' retained conductance matrices when the engine
// retains them (nil otherwise); a probe-armed task offers its first
// live slice evaluation for shadow-solving.
func (r *mvmRun) pass(ctx context.Context, t *mvmTask, tiles []Tile, gs []*linalg.Dense, blk *inputBlock, sign int64) error {
	if tiles == nil || !blk.any {
		t.stats.SkippedPasses++
		return nil
	}
	m := r.m
	cfg := m.eng.cfg
	mcols := cfg.Xbar.Cols
	ka := cfg.streamDigits()
	for l, tile := range tiles {
		if err := currentsInto(ctx, tile, t.curr, blk.vb, blk.vctx); err != nil {
			return fmt.Errorf("funcsim: tile (%d,%d) slice %d: %w", t.tr, t.tc, l, err)
		}
		if t.probeArm && gs != nil {
			m.probe.offer(m.id, t.tr, t.tc, l, gs[l], blk, t.curr)
			t.probeArm = false
		}
		for b := 0; b < r.batch; b++ {
			for k := 0; k < ka; k++ {
				ds := blk.digitSum[b*ka+k]
				if ds == 0 {
					continue // all-zero stream: nothing to add
				}
				t.stats.CrossbarOps++
				t.stats.ADCConversions += int64(mcols)
				t.stats.ShiftAdds += int64(mcols)
				crow := t.curr.Row(b*ka + k)
				shift := uint(k*cfg.StreamBits + l*cfg.SliceBits)
				off := m.kg * float64(ds)
				for j := 0; j < mcols; j++ {
					p := int64(math.Round(m.adc.Convert(crow[j])*m.scale - off))
					t.dot[b*mcols+j] += sign * (p << shift)
				}
			}
		}
	}
	return nil
}

// MVM executes y = x·W through the crossbar pipeline for a batch of
// real-valued inputs (batch×in). The result is batch×out in real
// units (already dequantized from the accumulator). Use MVMInto with a
// caller-owned output to avoid the result allocation.
func (m *Matrix) MVM(x *linalg.Dense) (*linalg.Dense, error) {
	return m.MVMContext(nil, x)
}

// MVMContext is MVM with cooperative cancellation: once ctx is done,
// pending tile tasks are abandoned before they start and in-flight
// circuit solves abort at their next solver update. A nil ctx is
// identical to MVM.
func (m *Matrix) MVMContext(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	out := linalg.NewDense(x.Rows, m.out)
	if err := m.MVMIntoContext(ctx, out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MVMInto executes y = x·W into dst (batch×out). Tile passes fan out
// across the shared worker pool (see Config.Workers); the saturating
// accumulator merge is serial in fixed (tileRow, tileCol) order, so
// the result is bit-identical to a fully serial execution at any
// worker count. Steady-state calls allocate nothing: all scratch comes
// from the matrix's run pool.
func (m *Matrix) MVMInto(dst, x *linalg.Dense) error {
	return m.MVMIntoContext(nil, dst, x)
}

// MVMIntoContext is MVMInto with cooperative cancellation (see
// MVMContext). On cancellation it returns an error wrapping ctx.Err()
// and dst holds unspecified contents.
func (m *Matrix) MVMIntoContext(ctx context.Context, dst, x *linalg.Dense) error {
	if x.Cols != m.in {
		return fmt.Errorf("funcsim: MVM input has %d features, matrix expects %d", x.Cols, m.in)
	}
	if dst.Rows != x.Rows || dst.Cols != m.out {
		return fmt.Errorf("funcsim: MVM output is %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, m.out)
	}
	mvmStart := time.Now()
	region := obs.StartRegion("funcsim.mvm")
	defer region.End()
	// Traced requests get a "funcsim.mvm" span parenting the per-tile
	// spans; untraced callers (nil or plain contexts — the benchmarked
	// steady state) skip straight past, preserving 0 allocs/op.
	if obs.TraceFromContext(ctx).Valid() {
		var span obs.Span
		ctx, span = obs.StartSpan(ctx, "funcsim.mvm")
		defer span.End()
	}
	cfg := m.eng.cfg
	r := m.getRun(x)
	r.ctx = ctx
	r.ts = m.acquireTiles()
	defer func() {
		r.ts.inflight.Add(-1)
		m.putRun(r)
	}()

	if cfg.Workers == 1 || len(r.tasks) == 1 {
		for i := range r.tasks {
			r.doTask(i)
		}
	} else {
		pool := mvmPool()
		r.wg.Add(len(r.tasks))
		for i := range r.tasks {
			if r.sem != nil {
				r.sem <- struct{}{}
			}
			pool <- mvmTaskRef{run: r, idx: i}
		}
		r.wg.Wait()
	}
	if r.err != nil {
		return r.err
	}

	// Deterministic merge: tileRow-major, tileCol-minor — the exact
	// order of the serial pipeline — so the non-associative saturating
	// accumulator sees the same operand sequence at any worker count.
	prodFrac := cfg.Act.Frac + cfg.Weight.Frac
	mcols := cfg.Xbar.Cols
	var total Stats
	for i := range r.tasks {
		t := &r.tasks[i]
		for b := 0; b < r.batch; b++ {
			for j := 0; j < mcols; j++ {
				gj := t.tc*mcols + j
				if gj >= m.out {
					continue
				}
				part := cfg.Acc.Rescale(t.dot[b*mcols+j], prodFrac)
				idx := b*m.out + gj
				r.accOut[idx] = cfg.Acc.Add(r.accOut[idx], part)
				total.AccOps++
			}
		}
		total.Add(t.stats)
	}
	total.MVMRows = int64(r.batch)
	m.stats.add(total)
	mMVMCalls.Inc()
	mMVMLatency.ObserveSince(mvmStart)
	mCrossbarOps.Add(total.CrossbarOps)
	mMVMRows.Add(total.MVMRows)

	for i, v := range r.accOut {
		dst.Data[i] = cfg.Acc.Dequantize(v)
	}
	return nil
}

// getRun pops a pooled run (or builds the first one) and sizes its
// scratch for the batch. Growth is monotonic: a run reused at the same
// or smaller batch size allocates nothing.
func (m *Matrix) getRun(x *linalg.Dense) *mvmRun {
	m.runMu.Lock()
	var r *mvmRun
	if n := len(m.runs); n > 0 {
		r = m.runs[n-1]
		m.runs = m.runs[:n-1]
	}
	m.runMu.Unlock()
	if r != nil {
		mFreelistHits.Inc()
	} else {
		mFreelistMisses.Inc()
		r = &mvmRun{m: m}
		r.blocks = make([]runBlock, m.tileRows)
		r.tasks = make([]mvmTask, m.tileRows*m.tileCols)
		for i := range r.tasks {
			r.tasks[i].tr = i / m.tileCols
			r.tasks[i].tc = i % m.tileCols
		}
	}

	cfg := m.eng.cfg
	batch := x.Rows
	ka := cfg.streamDigits()
	n, mcols := cfg.Xbar.Rows, cfg.Xbar.Cols
	r.x = x
	r.batch = batch
	r.failed = false
	r.err = nil
	r.accOut = growInt64(r.accOut, batch*m.out)
	for i := range r.accOut {
		r.accOut[i] = 0
	}
	for i := range r.blocks {
		rb := &r.blocks[i]
		rb.done = false
		for s := range rb.blocks {
			blk := &rb.blocks[s]
			blk.vb = linalg.GrowDense(blk.vb, batch*ka, n)
			blk.digitSum = growInt64(blk.digitSum, batch*ka)
			blk.any = false
			blk.vctx = nil
		}
	}
	for i := range r.tasks {
		t := &r.tasks[i]
		t.dot = growInt64(t.dot, batch*mcols)
		t.curr = linalg.GrowDense(t.curr, batch*ka, mcols)
	}
	if w := cfg.Workers; w >= 2 {
		if cap(r.sem) != w {
			r.sem = make(chan struct{}, w)
		}
	} else {
		r.sem = nil
	}
	return r
}

// putRun drops input references and returns the run to the freelist.
func (m *Matrix) putRun(r *mvmRun) {
	r.x = nil
	r.ctx = nil
	r.ts = nil
	m.runMu.Lock()
	m.runs = append(m.runs, r)
	m.runMu.Unlock()
}

// growInt64 returns s resized to n elements, reusing its backing array
// when capacity allows. Contents are unspecified.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// quantizeBlockInto converts one tile row's activation block into the
// positive and negative digit-serial input blocks, reusing the run's
// buffers. When the model chain has a GENIEx surrogate, the per-block
// voltage context is built here, once, and shared read-only by every
// (slice, sign, tileCol) evaluation of the row. sur is the surrogate
// of the run's pinned tileSet, so contexts and tiles always belong to
// the same model version even while a SwapModel is in flight.
func (m *Matrix) quantizeBlockInto(rb *runBlock, x *linalg.Dense, tr int, sur *core.Model) {
	cfg := m.eng.cfg
	n := cfg.Xbar.Rows
	ka := cfg.streamDigits()
	amax := float64(int64(1)<<cfg.StreamBits) - 1
	batch := x.Rows

	for s := range rb.blocks {
		blk := &rb.blocks[s]
		linalg.Fill(blk.vb.Data, 0)
		for i := range blk.digitSum {
			blk.digitSum[i] = 0
		}
		blk.any = false
		blk.vctx = nil
	}
	for b := 0; b < batch; b++ {
		row := x.Row(b)
		for i := 0; i < n; i++ {
			var q int64 // padding encodes activation 0
			if gi := tr*n + i; gi < m.in {
				q = cfg.Act.QuantizeSymmetric(row[gi])
			}
			if q == 0 {
				continue
			}
			s := 0
			mag := uint64(q)
			if q < 0 {
				s = 1
				mag = uint64(-q)
			}
			blk := &rb.blocks[s]
			blk.any = true
			for k := 0; k < ka; k++ {
				d := quant.Digit(mag, cfg.StreamBits, k)
				if d == 0 {
					continue
				}
				blk.vb.Set(b*ka+k, i, float64(d)/amax*cfg.Xbar.Vsupply)
				blk.digitSum[b*ka+k] += int64(d)
			}
		}
	}
	if sur != nil {
		for s := range rb.blocks {
			if blk := &rb.blocks[s]; blk.any {
				sur.VContextInto(&blk.vc, blk.vb)
				blk.vctx = &blk.vc
			}
		}
	}
}
