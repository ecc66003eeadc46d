package xbar

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// ItemStatus classifies the outcome of one batch item.
type ItemStatus uint8

const (
	// ItemOK means the item solved cleanly on the first attempt.
	ItemOK ItemStatus = iota
	// ItemRecovered means the first attempt succeeded on a recovery
	// rung (damped Newton or source stepping).
	ItemRecovered
	// ItemRetried means the first attempt failed under PolicyFailFast
	// and the retry under the recovery ladder succeeded.
	ItemRetried
	// ItemFailed means the item failed (after the retry, under
	// PolicyFailFast); its output row is zero and its error is
	// recorded.
	ItemFailed
)

// String implements fmt.Stringer.
func (s ItemStatus) String() string {
	switch s {
	case ItemOK:
		return "ok"
	case ItemRecovered:
		return "recovered"
	case ItemRetried:
		return "retried"
	case ItemFailed:
		return "failed"
	}
	return fmt.Sprintf("ItemStatus(%d)", int(s))
}

// ItemOutcome is the per-item record in a BatchReport.
type ItemOutcome struct {
	Status  ItemStatus
	Err     error // non-nil only when Status == ItemFailed
	Retries int
	// Recovery names the ladder rung that produced the accepted
	// solution ("" for a plain Newton solve).
	Recovery                 string
	Converged                bool
	Residual                 float64
	NewtonIters, DampedSteps int
}

// BatchReport aggregates per-item outcomes and solver-health counters
// for one BatchSolve call. Callers decide whether to continue with a
// degraded-item mask or fail the whole batch.
type BatchReport struct {
	// Outcomes has one entry per batch item, in item order.
	Outcomes []ItemOutcome
	// Solved, Recovered, Retried, Failed count items by final status.
	Solved, Recovered, Retried, Failed int
	// Unconverged counts items accepted with Converged=false (possible
	// only under PolicyBestEffort).
	Unconverged int
	// NewtonIters and DampedSteps aggregate solver work across all
	// items, retries included.
	NewtonIters, DampedSteps int
}

// AllOK reports whether every item produced a converged solution.
func (r *BatchReport) AllOK() bool { return r.Failed == 0 && r.Unconverged == 0 }

// FailedItems returns the indices of failed items, in order.
func (r *BatchReport) FailedItems() []int {
	var out []int
	for i, o := range r.Outcomes {
		if o.Status == ItemFailed {
			out = append(out, i)
		}
	}
	return out
}

// FailedMask returns a per-item mask, true where the item failed.
func (r *BatchReport) FailedMask() []bool {
	mask := make([]bool, len(r.Outcomes))
	for i, o := range r.Outcomes {
		mask[i] = o.Status == ItemFailed
	}
	return mask
}

// FirstError returns the first failed item's error, nil when none.
func (r *BatchReport) FirstError() error {
	for i, o := range r.Outcomes {
		if o.Err != nil {
			return fmt.Errorf("xbar: batch item %d: %w", i, o.Err)
		}
	}
	return nil
}

// String summarizes the report in one line.
func (r *BatchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch %d items: %d ok, %d recovered, %d retried, %d failed",
		len(r.Outcomes), r.Solved, r.Recovered, r.Retried, r.Failed)
	if r.Unconverged > 0 {
		fmt.Fprintf(&b, ", %d unconverged", r.Unconverged)
	}
	fmt.Fprintf(&b, " (newton=%d damped=%d)", r.NewtonIters, r.DampedSteps)
	return b.String()
}

// record folds one item outcome into the aggregate counters (Outcomes
// is filled separately, per item, to stay deterministic).
func (r *BatchReport) tally(o ItemOutcome) {
	switch o.Status {
	case ItemOK:
		r.Solved++
	case ItemRecovered:
		r.Recovered++
	case ItemRetried:
		r.Retried++
	case ItemFailed:
		r.Failed++
	}
	if o.Status != ItemFailed && !o.Converged {
		r.Unconverged++
	}
	r.NewtonIters += o.NewtonIters
	r.DampedSteps += o.DampedSteps
}

// Err returns nil when every item produced a converged solution, the
// first failed item's error when any item failed, and an error
// matching ErrNewtonDiverged when the batch contains best-effort items
// accepted with Converged=false. It is the strict form of the AllOK
// contract: callers that cannot tolerate silently degraded outputs
// check Err; callers that can, inspect the per-item Outcomes instead.
func (r *BatchReport) Err() error {
	if r.Failed > 0 {
		return r.FirstError()
	}
	if r.Unconverged > 0 {
		return fmt.Errorf("xbar: %d of %d batch items accepted without convergence (best-effort): %w",
			r.Unconverged, len(r.Outcomes), ErrNewtonDiverged)
	}
	return nil
}

// BatchSolve runs the full non-linear circuit solver for a batch of
// input vectors against a single programmed conductance matrix,
// fanning out across CPUs. vs is batch×Rows; the result is batch×Cols
// of non-ideal output currents. Any item that fails — or is accepted
// without convergence under PolicyBestEffort — makes the whole call
// fail; use BatchSolveReport for per-item outcomes.
func BatchSolve(cfg Config, g *linalg.Dense, vs *linalg.Dense) (*linalg.Dense, error) {
	out, rep, err := BatchSolveReport(cfg, g, vs)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchSolveReport is the resilient one-shot batch entry point: every
// item is attempted, items that fail under PolicyFailFast are retried
// once under the recovery ladder, and the report records per-item
// status so callers can continue with a degraded-item mask instead of
// losing the whole batch. Failed items' output rows are zero. Note the
// report may contain unconverged best-effort items even when the
// returned error is nil; gate on BatchReport.AllOK (or Err) when
// degraded outputs are unacceptable.
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
	rep, err := s.SolveReportInto(out, vs)
	if err != nil {
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

	mu   sync.Mutex
	free []*Crossbar // programmed instances ready to solve
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

// SolveReport is the allocating form of SolveReportInto: it allocates
// the batch×Cols output matrix and delegates. This follows the
// repo-wide result-buffer idiom — a method X allocates its result and
// delegates to XInto, which writes into a caller-owned buffer and is
// the one to use in steady-state loops.
func (s *BatchSolver) SolveReport(vs *linalg.Dense) (*linalg.Dense, *BatchReport, error) {
	out := linalg.NewDense(vs.Rows, s.cfg.Cols)
	rep, err := s.SolveReportInto(out, vs)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// SolveReportInto solves every item of vs (batch×Rows) into out
// (batch×Cols), fanning out across the configured worker count
// (Config.BatchWorkers; 0 means GOMAXPROCS). Items that fail under
// PolicyFailFast are retried once under the recovery ladder; failed
// items are zeroed. The report, allocated per call, carries per-item
// outcomes. The error covers setup problems only. Results are deterministic and
// independent of worker count and block composition: every item's
// arithmetic depends only on the array and its own drive vector, and
// each item is written by index.
func (s *BatchSolver) SolveReportInto(out *linalg.Dense, vs *linalg.Dense) (*BatchReport, error) {
	rep := &BatchReport{}
	if err := s.SolveReportIntoContext(nil, rep, out, vs); err != nil {
		return nil, err
	}
	return rep, nil
}

// SolveReportIntoContext is SolveReportInto into a caller-owned report,
// under cooperative cancellation. It overwrites rep, reusing the
// capacity of rep.Outcomes, so a caller that keeps its report makes
// steady-state calls whose allocations do not grow with the batch.
// Workers stop drawing new blocks once ctx is done, the in-flight
// solves abort at their next update, and the call returns an error
// matching ctx.Err(). On cancellation the output and report are
// incomplete and must be discarded — cancellation is a whole-call
// outcome, not a per-item one. A nil ctx means no cancellation.
//
// Items run in blocks of up to blockLanes(cfg): each block runs the
// seeded rung 0 of the items it can finish in lockstep and everything
// else on the one-item ladder (see solveBlock).
func (s *BatchSolver) SolveReportIntoContext(ctx context.Context, rep *BatchReport, out *linalg.Dense, vs *linalg.Dense) error {
	cfg := s.cfg
	if vs.Cols != cfg.Rows {
		return fmt.Errorf("xbar: BatchSolve inputs have %d columns for %d rows", vs.Cols, cfg.Rows)
	}
	if out.Rows != vs.Rows || out.Cols != cfg.Cols {
		return fmt.Errorf("xbar: BatchSolve output is %dx%d, want %dx%d", out.Rows, out.Cols, vs.Rows, cfg.Cols)
	}
	region := obs.StartRegion("xbar.batch")
	defer region.End()
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
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Blocks are whole work units: with several workers they shrink so
	// that a small batch still spreads across all of them.
	block := max(1, min(blockLanes(cfg), (vs.Rows+workers-1)/workers))
	blocks := (vs.Rows + block - 1) / block
	workers = max(1, min(workers, blocks))
	bounds := func(k int) (int, int) { return k * block, min((k+1)*block, vs.Rows) }

	if workers == 1 {
		// Serial fast path: no goroutines, one pooled instance.
		xb, err := s.acquire()
		if err != nil {
			return err
		}
		for k := 0; k < blocks; k++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			lo, hi := bounds(k)
			s.solveBlock(ctx, xb, vs, out, outcomes, lo, hi)
		}
		s.release(xb)
	} else {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			setupErr error
		)
		next := make(chan int, blocks)
		for k := 0; k < blocks; k++ {
			next <- k
		}
		close(next)

		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				xb, err := s.acquire()
				if err != nil {
					mu.Lock()
					if setupErr == nil {
						setupErr = err
					}
					mu.Unlock()
					return
				}
				defer s.release(xb)
				for k := range next {
					if ctx != nil && ctx.Err() != nil {
						return
					}
					mu.Lock()
					dead := setupErr != nil
					mu.Unlock()
					if dead {
						return
					}
					lo, hi := bounds(k)
					s.solveBlock(ctx, xb, vs, out, outcomes, lo, hi)
				}
			}()
		}
		wg.Wait()
		if setupErr != nil {
			return setupErr
		}
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
// and writes the currents into dst (zeroed on failure). An item that
// fails under PolicyFailFast is retried once with the recovery ladder
// on. Under the other policies the ladder has already run, and it is
// deterministic with the item's fault plan re-armed identically, so a
// retry would repeat the same work and fail the same way; a cancelled
// item is not retried either — its caller discards the whole report.
func solveItem(ctx context.Context, xb *Crossbar, v, dst []float64) ItemOutcome {
	sol := &xb.sol
	if err := xb.solve(ctx, v, xb.cfg.Policy, sol); err != nil {
		if canceled(err) || xb.cfg.Policy != PolicyFailFast {
			linalg.Fill(dst, 0)
			return ItemOutcome{Status: ItemFailed, Err: err}
		}
		if err := xb.solve(ctx, v, PolicyRecover, sol); err != nil {
			linalg.Fill(dst, 0)
			return ItemOutcome{Status: ItemFailed, Err: err, Retries: 1}
		}
		copy(dst, sol.Currents)
		return outcomeFor(sol, ItemRetried, 1)
	}
	copy(dst, sol.Currents)
	status := ItemOK
	if sol.Recovery != "" {
		status = ItemRecovered
	}
	return outcomeFor(sol, status, 0)
}

func outcomeFor(sol *Solution, status ItemStatus, retries int) ItemOutcome {
	return ItemOutcome{
		Status:      status,
		Retries:     retries,
		Recovery:    sol.Recovery,
		Converged:   sol.Converged,
		Residual:    sol.Residual,
		NewtonIters: sol.NewtonIters,
		DampedSteps: sol.DampedSteps,
	}
}
