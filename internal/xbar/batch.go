package xbar

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// ItemStatus classifies the outcome of one batch item.
type ItemStatus uint8

const (
	// ItemOK means rung 0 solved the item.
	ItemOK ItemStatus = iota
	// ItemRecovered means a recovery rung (damped Newton or source
	// stepping) solved the item.
	ItemRecovered
	// ItemFailed means every rung failed; the item's output row is zero
	// and its error is recorded.
	ItemFailed
)

// String implements fmt.Stringer.
func (s ItemStatus) String() string {
	switch s {
	case ItemOK:
		return "ok"
	case ItemRecovered:
		return "recovered"
	case ItemFailed:
		return "failed"
	}
	return fmt.Sprintf("ItemStatus(%d)", int(s))
}

// ItemOutcome is the per-item record in a BatchReport.
type ItemOutcome struct {
	Status ItemStatus
	Err    error // non-nil only when Status == ItemFailed
	// Recovery names the ladder rung that produced the accepted
	// solution ("" for rung 0).
	Recovery                 string
	Residual                 float64
	NewtonIters, DampedSteps int
}

// BatchReport aggregates per-item outcomes and solver-health counters
// for one batch solve. Callers decide whether to continue past failed
// items or fail the whole batch.
type BatchReport struct {
	// Outcomes has one entry per batch item, in item order.
	Outcomes []ItemOutcome
	// Solved, Recovered, Failed count items by status.
	Solved, Recovered, Failed int
	// NewtonIters and DampedSteps aggregate solver work across all
	// items.
	NewtonIters, DampedSteps int
}

// AllOK reports whether every item produced a solution.
func (r *BatchReport) AllOK() bool { return r.Failed == 0 }

// Err returns the first failed item's error, nil when none failed.
// Callers that cannot tolerate zeroed outputs check Err; callers that
// can inspect the per-item Outcomes instead.
func (r *BatchReport) Err() error {
	for i, o := range r.Outcomes {
		if o.Err != nil {
			return fmt.Errorf("xbar: batch item %d: %w", i, o.Err)
		}
	}
	return nil
}

// String summarizes the report in one line.
func (r *BatchReport) String() string {
	return fmt.Sprintf("batch %d items: %d ok, %d recovered, %d failed (newton=%d damped=%d)",
		len(r.Outcomes), r.Solved, r.Recovered, r.Failed, r.NewtonIters, r.DampedSteps)
}

// tally folds one item outcome into the aggregate counters (Outcomes
// is filled separately, per item, to stay deterministic).
func (r *BatchReport) tally(o ItemOutcome) {
	switch o.Status {
	case ItemOK:
		r.Solved++
	case ItemRecovered:
		r.Recovered++
	case ItemFailed:
		r.Failed++
	}
	r.NewtonIters += o.NewtonIters
	r.DampedSteps += o.DampedSteps
}

// BatchSolveReport is the resilient one-shot batch entry point: every
// item runs the recovery ladder, and the report records per-item
// status so callers can continue past failed items instead of losing
// the whole batch. Failed items' output rows are zero; gate on
// BatchReport.AllOK (or Err) when zeroed outputs are unacceptable.
//
// The returned error covers setup problems only (bad shapes, an
// unprogrammable conductance matrix); solver failures never abort the
// batch. Results are deterministic under both start modes: each item's
// starting point is a pure function of the programmed conductances and
// its drive vector, so the output is independent of worker count and
// scheduling.
//
// Callers that evaluate many batches against the same conductance
// matrix should hold a NewBatchSolver instead: this function builds
// and programs fresh crossbar instances on every call.
func BatchSolveReport(cfg Config, g *linalg.Dense, vs *linalg.Dense) (*linalg.Dense, *BatchReport, error) {
	s, err := NewBatchSolver(cfg, g)
	if err != nil {
		return nil, nil, err
	}
	out := linalg.NewDense(vs.Rows, cfg.Cols)
	rep := &BatchReport{}
	if err := s.SolveReportIntoContext(nil, rep, out, vs); err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// BatchSolver is a reusable batch-solving handle bound to one
// programmed conductance matrix. It keeps a pool of programmed
// Crossbar instances, so a caller that evaluates many voltage batches
// against the same weights — the functional simulator's circuit tiles
// are the motivating case — pays netlist construction and programming
// once per pooled instance for the solver's lifetime, not once per
// worker per call.
//
// A BatchSolver is safe for concurrent use; concurrent calls draw
// distinct instances from the pool.
type BatchSolver struct {
	cfg     Config     // worker configuration, fault plan stripped
	faults  *FaultPlan // per-item plan carried by the original config
	g       *linalg.Dense
	workers int

	// The operating-point factorization is built once per array and
	// shared read-only by every pooled instance (each brings its own
	// scratch), so pool growth costs no refactorization.
	factOnce sync.Once
	fact     *opFactor

	mu    sync.Mutex
	free  []*Crossbar  // programmed instances ready to solve
	calls []*batchCall // finished call records
}

// batchCall is what one SolveReportIntoContext call shares with the
// blocks it fans out. Solvers recycle the records, and each binds its
// block body once, so a call allocates no closure.
type batchCall struct {
	s        *BatchSolver
	ctx      context.Context
	vs, out  *linalg.Dense
	outcomes []ItemOutcome
	block    int         // items per block
	run      func(k int) // runBlock, bound once
	mu       sync.Mutex
	err      error // the first acquire error
}

// getCall takes a finished call record or makes one.
func (s *BatchSolver) getCall() *batchCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.calls); n > 0 {
		c := s.calls[n-1]
		s.calls = s.calls[:n-1]
		return c
	}
	c := &batchCall{s: s}
	c.run = c.runBlock
	return c
}

// putCall drops the call's references and recycles the record.
func (s *BatchSolver) putCall(c *batchCall) {
	c.ctx, c.vs, c.out, c.outcomes, c.err = nil, nil, nil, nil, nil
	s.mu.Lock()
	s.calls = append(s.calls, c)
	s.mu.Unlock()
}

// runBlock solves block k of the call on a pooled instance. Once ctx is
// done, blocks not yet started are skipped.
func (c *batchCall) runBlock(k int) {
	if c.ctx != nil && c.ctx.Err() != nil {
		return
	}
	xb, err := c.s.acquire()
	if err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		return
	}
	lo, hi := k*c.block, min((k+1)*c.block, c.vs.Rows)
	c.s.solveBlock(c.ctx, xb, c.vs, c.out, c.outcomes, lo, hi)
	c.s.release(xb)
}

// NewBatchSolver validates the design point, programs one crossbar
// instance eagerly (so conductance-window errors surface here, not
// mid-batch), and returns the reusable handle. The fault-injection
// plan and BatchWorkers carried by cfg apply to every subsequent call.
func NewBatchSolver(cfg Config, g *linalg.Dense) (*BatchSolver, error) {
	s := &BatchSolver{
		cfg:     cfg.WithFaults(nil), // plans are scoped per item in solve
		faults:  cfg.faults,
		g:       g.Clone(),
		workers: cfg.BatchWorkers,
	}
	xb, err := s.newInstance()
	if err != nil {
		return nil, err
	}
	s.free = []*Crossbar{xb}
	return s, nil
}

func (s *BatchSolver) newInstance() (*Crossbar, error) {
	xb, err := New(s.cfg)
	if err != nil {
		return nil, err
	}
	if err := xb.Program(s.g); err != nil {
		return nil, err
	}
	if s.cfg.Start != StartCold {
		// Factor once per array; later instances adopt the shared
		// factor instead of rebuilding it. A nil result (build failure)
		// simply leaves every instance on the cold-start fallback.
		s.factOnce.Do(func() { s.fact = xb.shareFactor() })
		if s.fact != nil && xb.fact == nil {
			xb.fact = s.fact
		}
	}
	return xb, nil
}

// acquire pops a programmed instance from the pool or builds one.
func (s *BatchSolver) acquire() (*Crossbar, error) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		xb := s.free[n-1]
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return xb, nil
	}
	s.mu.Unlock()
	return s.newInstance()
}

// release returns an instance to the pool. The pool retains at most
// GOMAXPROCS idle instances; surplus ones are dropped for the GC.
func (s *BatchSolver) release(xb *Crossbar) {
	xb.setFaults(nil)
	s.mu.Lock()
	if len(s.free) < runtime.GOMAXPROCS(0) {
		s.free = append(s.free, xb)
	}
	s.mu.Unlock()
}

// SolveReportIntoContext solves every item of vs (batch×Rows) into
// out and overwrites rep with the per-item outcomes, reusing the
// capacity of rep.Outcomes, so a caller that keeps its report makes
// steady-state calls that allocate nothing. Every item runs the
// recovery ladder; failed items are zeroed. out is batch×c with
// c ≤ Cols: it receives the first c output currents of every item,
// which equal the leading currents of a full-width solve (the solve
// itself always covers the whole array). The error covers setup
// problems and cancellation only.
// Results are deterministic and independent of worker count and block
// composition: every item's arithmetic depends only on the array and
// its own drive vector, and each item is written by index.
//
// Cancellation is cooperative: blocks not yet started are skipped once
// ctx is done, the in-flight solves abort at their next update, and
// the call returns an error matching ctx.Err(). On cancellation the
// output and report are incomplete and must be discarded —
// cancellation is a whole-call outcome, not a per-item one. A nil ctx
// means no cancellation.
//
// Items run in blocks of up to blockLanes(cfg), claimed one at a time
// on the process's fan-out pool (linalg.ParallelEach) with
// Config.BatchWorkers as the width; each block runs on a pooled
// instance the seeded rung 0 of the items it can finish in lockstep
// and everything else on the one-item ladder (see solveBlock).
func (s *BatchSolver) SolveReportIntoContext(ctx context.Context, rep *BatchReport, out *linalg.Dense, vs *linalg.Dense) error {
	cfg := s.cfg
	if vs.Cols != cfg.Rows {
		return fmt.Errorf("xbar: batch solve inputs have %d columns for %d rows", vs.Cols, cfg.Rows)
	}
	if out.Rows != vs.Rows || out.Cols > cfg.Cols {
		return fmt.Errorf("xbar: batch solve output is %dx%d, want %dx(≤%d)", out.Rows, out.Cols, vs.Rows, cfg.Cols)
	}
	// One parented span per batch call (not per item): a traced request
	// sees every slice evaluation as one "xbar.batch.solve" child under
	// its tile span without flooding the span ring with per-item events.
	if obs.TraceFromContext(ctx).Valid() {
		var span obs.Span
		ctx, span = obs.StartSpan(ctx, "xbar.batch.solve")
		defer span.End()
	}
	outcomes := rep.Outcomes
	if cap(outcomes) < vs.Rows {
		outcomes = make([]ItemOutcome, vs.Rows)
	} else {
		outcomes = outcomes[:vs.Rows]
		clear(outcomes)
	}
	*rep = BatchReport{Outcomes: outcomes}
	// The pool runs at most GOMAXPROCS blocks at once, whatever the width.
	workers := s.workers
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	// Blocks are whole work units: with several workers they shrink so
	// that a small batch still spreads across all of them.
	block := max(1, min(blockLanes(cfg), (vs.Rows+workers-1)/workers))
	c := s.getCall()
	c.ctx, c.vs, c.out, c.outcomes, c.block = ctx, vs, out, outcomes, block
	linalg.ParallelEach((vs.Rows+block-1)/block, s.workers, c.run)
	err := c.err
	s.putCall(c)
	if err != nil {
		return err
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("xbar: batch solve cancelled: %w", cerr)
		}
	}
	for _, o := range outcomes {
		rep.tally(o)
	}
	recordBatch(rep)
	return nil
}

// armFaults scopes the per-item fault-injection plan onto an instance.
func (s *BatchSolver) armFaults(xb *Crossbar, b int) {
	if s.faults.covers(b) {
		xb.setFaults(s.faults)
	} else {
		xb.setFaults(nil)
	}
}

// solveItem solves one batch item into the instance's reused Solution
// and writes the currents into dst (zeroed on failure).
func solveItem(ctx context.Context, xb *Crossbar, v, dst []float64) ItemOutcome {
	sol := &xb.sol
	if err := xb.solve(ctx, v, sol); err != nil {
		linalg.Fill(dst, 0)
		return ItemOutcome{Status: ItemFailed, Err: err}
	}
	copy(dst, sol.Currents)
	status := ItemOK
	if sol.Recovery != "" {
		status = ItemRecovered
	}
	return ItemOutcome{
		Status:      status,
		Recovery:    sol.Recovery,
		Residual:    sol.Residual,
		NewtonIters: sol.NewtonIters,
		DampedSteps: sol.DampedSteps,
	}
}
