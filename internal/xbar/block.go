package xbar

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"geniex/internal/linalg"
)

// blockBytes is the cache budget of one block node vector: a block
// holds as many batch items as fit their 3·Rows·Cols node voltages in
// it (32 items at 8×8, 8 at 16×16, 2 at 32×32).
const blockBytes = 48 << 10

// minLanes is the fewest items a block runs in lockstep. Below it the
// block loops lose to the one-item loops: at one right-hand side they
// are about twice as slow, and on 32×32 (two lanes) block rung 0 ran
// about 1.3× slower per item than the one-item path (2-vCPU Xeon,
// go1.24).
const minLanes = 4

// blockLanes is the number of batch items one block runs in lockstep
// on a Rows×Cols array, 0 where that would be fewer than minLanes.
func blockLanes(cfg Config) int {
	if n := blockBytes / (8 * 3 * cfg.Rows * cfg.Cols); n >= minLanes {
		return n
	}
	return 0
}

// blockScratch is the workspace of one running block: the lane-minor
// node vectors, drives and per-lane state.
type blockScratch struct {
	rows, cols int       // array shape it serves
	lanes      int       // capacity, blockLanes(cfg)
	volt, res  []float64 // iterates and F, 3·R·C rows of stride lanes
	drive      []float64 // drive vectors, R rows of stride lanes
	y, tmp     []float64 // opFactor block-solve scratch, C rows each
	f2, b2     []float64 // per lane: kclLanes' squared norms
	prev, last []float64 // per lane: previous residual, last step
	iters      []int     // per lane: chord updates so far
	item       []int     // per lane: batch index
	redo       []int     // items left to the one-item path
}

func newBlockScratch(cfg Config, lanes int) *blockScratch {
	n := 3 * cfg.Rows * cfg.Cols
	return &blockScratch{
		rows:  cfg.Rows,
		cols:  cfg.Cols,
		lanes: lanes,
		volt:  make([]float64, n*lanes),
		res:   make([]float64, n*lanes),
		drive: make([]float64, cfg.Rows*lanes),
		y:     make([]float64, cfg.Cols*lanes),
		tmp:   make([]float64, cfg.Cols*lanes),
		f2:    make([]float64, lanes),
		b2:    make([]float64, lanes),
		prev:  make([]float64, lanes),
		last:  make([]float64, lanes),
		iters: make([]int, lanes),
		item:  make([]int, lanes),
		redo:  make([]int, 0, lanes),
	}
}

// blockFree recycles block workspaces process-wide. A workspace is in
// use only while its block runs, so the process needs about one per
// running worker; owned by every pooled Crossbar instance instead, the
// ~300 instances of sim-circuit's lowered CNN held 30 MB of them and
// raised its max RSS by 38%. It is a locked list rather than a
// sync.Pool because a sync.Pool drops items at random under the race
// detector and at GC, and each drop re-allocates a ~100 KB workspace.
var blockFree struct {
	mu   sync.Mutex
	list []*blockScratch
}

// getBlockScratch takes a free workspace for cfg's shape, or makes one.
func getBlockScratch(cfg Config, lanes int) *blockScratch {
	blockFree.mu.Lock()
	defer blockFree.mu.Unlock()
	list := blockFree.list
	for i := len(list) - 1; i >= 0; i-- {
		if w := list[i]; w.rows == cfg.Rows && w.cols == cfg.Cols {
			blockFree.list = append(list[:i], list[i+1:]...)
			return w
		}
	}
	return newBlockScratch(cfg, lanes)
}

// putBlockScratch returns a workspace, keeping at most two per CPU;
// the oldest is dropped first.
func putBlockScratch(w *blockScratch) {
	blockFree.mu.Lock()
	defer blockFree.mu.Unlock()
	if len(blockFree.list) >= 2*runtime.GOMAXPROCS(0) {
		blockFree.list = append(blockFree.list[:0], blockFree.list[1:]...)
	}
	blockFree.list = append(blockFree.list, w)
}

// moveLane copies lane src's iterate, F, drive and state into lane dst.
func (w *blockScratch) moveLane(dst, src int) {
	ld := w.lanes
	for n := dst; n < len(w.volt); n += ld {
		w.volt[n] = w.volt[n-dst+src]
		w.res[n] = w.res[n-dst+src]
	}
	for n := dst; n < len(w.drive); n += ld {
		w.drive[n] = w.drive[n-dst+src]
	}
	w.prev[dst], w.last[dst] = w.prev[src], w.last[src]
	w.iters[dst], w.item[dst] = w.iters[src], w.item[src]
}

// solveBlock solves batch items [lo, hi) on xb: the ones block rung 0
// can finish run in lockstep, the rest on the one-item path. It stops
// early, leaving later items unattempted, once ctx is done.
func (s *BatchSolver) solveBlock(ctx context.Context, xb *Crossbar, vs, out *linalg.Dense, outcomes []ItemOutcome, lo, hi int) {
	lanes := blockLanes(s.cfg)
	if hi-lo < minLanes || lanes == 0 || xb.fact == nil {
		s.solveItems(ctx, xb, vs, out, outcomes, lo, hi)
		return
	}
	w := getBlockScratch(s.cfg, lanes)
	defer putBlockScratch(w)
	// The block takes only items it can finish: in-range drives on the
	// shared factor with no fault plan. Everything else, and every item
	// chord hands over, re-runs on the one-item path from the start,
	// which reproduces its outcome and counters exactly.
	xb.setFaults(nil)
	w.redo = w.redo[:0]
	m, ld := 0, w.lanes
	for b := lo; b < hi; b++ {
		v := vs.Row(b)
		if s.faults.covers(b) || checkDrive(xb.cfg, v) != nil {
			w.redo = append(w.redo, b)
			continue
		}
		for i, vi := range v {
			w.drive[i*ld+m] = vi
		}
		w.item[m] = b
		m++
	}
	if m > 0 && !s.chordBlock(ctx, xb, w, m, out, outcomes) {
		return
	}
	for _, b := range w.redo {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		s.solveItems(ctx, xb, vs, out, outcomes, b, b+1)
	}
}

// solveItems runs batch items [lo, hi) one at a time on the one-item
// path, in order, until ctx is done.
func (s *BatchSolver) solveItems(ctx context.Context, xb *Crossbar, vs, out *linalg.Dense, outcomes []ItemOutcome, lo, hi int) {
	for b := lo; b < hi; b++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		s.armFaults(xb, b)
		outcomes[b] = solveItem(ctx, xb, vs.Row(b), out.Row(b))
	}
}

// chordBlock is the seeded rung 0 of chordIterate for the m items
// loaded into the block's lanes: one block seed solve, then per update
// one kclLanes pass and one block back-substitution through the shared
// factor. Each lane makes chordIterate's decisions on its own numbers,
// so it leaves the block at the update the one-item solve would stop
// at: accepted items are written out and recorded as solves here,
// handed-over items join w.redo. It reports false when ctx was done.
func (s *BatchSolver) chordBlock(ctx context.Context, xb *Crossbar, w *blockScratch, m int, out *linalg.Dense, outcomes []ItemOutcome) bool {
	f := xb.fact
	ld := w.lanes
	start := time.Now()
	// Block seed: seedInto's right-hand side for every lane.
	linalg.Fill(w.res, 0)
	for i := 0; i < xb.cfg.Rows; i++ {
		rhs, drv := w.res[i*xb.cfg.Cols*ld:], w.drive[i*ld:]
		for l := 0; l < m; l++ {
			rhs[l] = f.gsrc * drv[l]
		}
	}
	f.solveBlockInto(w.volt, w.res, m, ld, w)
	for l := 0; l < m; l++ {
		w.prev[l], w.last[l], w.iters[l] = math.Inf(1), math.Inf(1), 0
	}
	for update := 0; m > 0; update++ {
		if err := ctxErr(ctx, update); err != nil {
			for l := 0; l < m; l++ {
				outcomes[w.item[l]] = ItemOutcome{Status: ItemFailed, Err: err}
			}
			mSolveCancelled.Add(int64(m))
			return false
		}
		f2, b2 := w.f2[:m], w.b2[:m]
		linalg.Fill(f2, 0)
		linalg.Fill(b2, 0)
		xb.kclLanes(w.drive, w.volt, w.res, ld, f2, b2, false)
		for l := m - 1; l >= 0; l-- {
			resid := relResid(f2[l], b2[l])
			switch {
			case accepted(resid, w.last[l]):
				b := w.item[l]
				xb.currentsInto(out.Row(b), w.volt[l:], ld)
				outcomes[b] = ItemOutcome{Status: ItemOK, Residual: resid, NewtonIters: w.iters[l]}
				recordSolve(&Solution{Seeded: true, NewtonIters: w.iters[l]}, nil, start)
			case !(resid <= w.prev[l]/2) || update == xb.maxNewton:
				w.redo = append(w.redo, w.item[l])
			default:
				w.prev[l] = resid
				continue
			}
			m--
			if l != m {
				w.moveLane(l, m)
			}
		}
		if m == 0 {
			break
		}
		f.solveBlockInto(w.res, w.res, m, ld, w)
		for l := 0; l < m; l++ {
			w.last[l] = 0
		}
		step := w.last[:m]
		for n := 0; n < len(w.volt); n += ld {
			volt, d := w.volt[n:n+m], w.res[n:n+m]
			for l, dl := range d {
				volt[l] -= dl
				if dl = math.Abs(dl); dl > step[l] {
					step[l] = dl
				}
			}
		}
		for l := 0; l < m; l++ {
			w.iters[l]++
		}
	}
	return true
}
