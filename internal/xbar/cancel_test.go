package xbar

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// countdownCtx is a deterministic cancellation source: Err returns nil
// for the first n calls and context.Canceled afterwards. It lets the
// tests cancel mid-Newton without sleeping on wall-clock timers.
type countdownCtx struct {
	n atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{}
	c.n.Store(n)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelTestCrossbar(t *testing.T) *Crossbar {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := linalg.NewDense(8, 8)
	r := linalg.NewRNG(7)
	for i := range g.Data {
		g.Data[i] = cfg.Goff() + r.Float64()*(cfg.Gon()-cfg.Goff())
	}
	if err := xb.Program(g); err != nil {
		t.Fatal(err)
	}
	return xb
}

func cancelTestInput(xb *Crossbar) []float64 {
	v := make([]float64, xb.cfg.Rows)
	for i := range v {
		v[i] = xb.cfg.Vsupply
	}
	return v
}

// A background context must behave exactly like the context-free path.
func TestSolveContextBackground(t *testing.T) {
	xb := cancelTestCrossbar(t)
	v := cancelTestInput(xb)
	want, err := xb.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := xb.SolveContext(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Currents {
		if got.Currents[i] != want.Currents[i] {
			t.Fatalf("column %d: SolveContext %g != Solve %g", i, got.Currents[i], want.Currents[i])
		}
	}
}

// Cancellation mid-Newton must abort the solve with an error wrapping
// the context error and must not fall through to the recovery ladder —
// a dead caller gets no rescue rungs.
func TestSolveContextCancelledMidNewton(t *testing.T) {
	xb := cancelTestCrossbar(t)
	v := cancelTestInput(xb)
	for _, checks := range []int64{0, 1, 2} {
		sol, err := xb.SolveContext(newCountdownCtx(checks), v)
		if err == nil {
			t.Fatalf("checks=%d: cancelled solve succeeded", checks)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("checks=%d: error %v does not wrap context.Canceled", checks, err)
		}
		if sol != nil {
			t.Fatalf("checks=%d: cancelled solve returned a solution", checks)
		}
	}
}

// A deadline that has already passed must be honored before any Newton
// work, and the failure must surface as context.DeadlineExceeded.
func TestSolveContextDeadlineExceeded(t *testing.T) {
	xb := cancelTestCrossbar(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := xb.SolveContext(ctx, cancelTestInput(xb))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// Cancelled solves must be observable: the dedicated cancelled counter
// advances while the solve/failure counters stay flat — cancellation
// is a caller outcome, not a solver health event.
func TestSolveCancellationCounters(t *testing.T) {
	xb := cancelTestCrossbar(t)
	v := cancelTestInput(xb)

	before := obs.Snapshot().Counters
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := xb.SolveContext(ctx, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	after := obs.Snapshot().Counters
	if d := after["xbar.solver.solves"] - before["xbar.solver.solves"]; d != 0 {
		t.Errorf("solve counter advanced by %d during a cancelled solve", d)
	}
	if d := after["xbar.solver.failures"] - before["xbar.solver.failures"]; d != 0 {
		t.Errorf("failure counter advanced by %d during a cancelled solve", d)
	}
	if d := after["xbar.solver.cancelled"] - before["xbar.solver.cancelled"]; d != 1 {
		t.Errorf("cancelled counter advanced by %d, want 1", d)
	}
}

// Batch solving with a cancelled context must fail the whole call;
// remaining items are never attempted and never retried.
func TestBatchSolveContextCancelled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g := linalg.NewDense(8, 8)
	r := linalg.NewRNG(9)
	for i := range g.Data {
		g.Data[i] = cfg.Goff() + r.Float64()*(cfg.Gon()-cfg.Goff())
	}
	bs, err := NewBatchSolver(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	vs := linalg.NewDense(4, 8)
	for i := range vs.Data {
		vs.Data[i] = cfg.Vsupply
	}
	out := linalg.NewDense(4, 8)

	if _, err := bs.SolveReportIntoContext(context.Background(), out, vs); err != nil {
		t.Fatalf("background-context batch failed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bs.SolveReportIntoContext(ctx, out, vs); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
