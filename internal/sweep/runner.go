package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"geniex/internal/core"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/nonideal"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// Options configures one Run.
type Options struct {
	// Dir is the checkpoint directory: spec.json, cells/<id>.json per
	// completed cell, summary.json at the end.
	Dir string
	// Resume skips cells whose checkpoint files already exist. Without
	// it, existing checkpoints in Dir are an error — a fresh sweep must
	// not silently adopt (or overwrite) another run's results.
	Resume bool
	// Jobs overrides Spec.Jobs when positive.
	Jobs int
	// CellDelay inserts an artificial pause before each executed cell.
	// It exists for the kill-and-resume smoke test, which needs cells
	// slow enough to interrupt a run mid-grid deterministically.
	CellDelay time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Failure records a cell that errored or panicked. Failed cells write
// no checkpoint, so a resumed run retries them.
type Failure struct {
	ID  string `json:"id"`
	Err string `json:"err"`
}

// Outcome is what one Run did: freshly executed cells, cells skipped
// because a checkpoint already existed, failures, and the full result
// set (checkpointed + fresh) with its summary.
type Outcome struct {
	Executed int
	Skipped  int
	Failures []Failure
	Results  []Result
	Summary  Summary
}

// cellHook, when non-nil, runs just before each executed cell; tests
// use it to inject panics and to observe execution order.
var cellHook func(Cell)

// Run executes the sweep grid, checkpointing each completed cell
// atomically under opt.Dir. Cells are claimed one at a time on the
// process's fan-out pool (linalg.ParallelEach) with Jobs as the width,
// but every cell is individually deterministic, so the result set is
// independent of scheduling. On context cancellation Run skips the
// cells not yet started, without recording them as failures, waits
// for the in-flight ones, and returns the context error; completed
// checkpoints stay valid for a later -resume.
func Run(ctx context.Context, spec Spec, opt Options) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("sweep: no checkpoint directory")
	}
	cellsDir := filepath.Join(opt.Dir, "cells")
	if err := os.MkdirAll(cellsDir, 0o755); err != nil {
		return nil, err
	}
	if err := checkSpecFile(spec, opt.Dir); err != nil {
		return nil, err
	}

	cells := spec.Cells()
	out := &Outcome{}
	var pending []Cell
	for _, c := range cells {
		path := filepath.Join(cellsDir, c.ID()+".json")
		if _, err := os.Stat(path); err == nil {
			if !opt.Resume {
				return nil, fmt.Errorf("sweep: checkpoint %s already exists; pass resume or use a fresh directory", path)
			}
			var r Result
			if err := readJSON(path, &r); err != nil {
				return nil, fmt.Errorf("sweep: corrupt checkpoint %s: %w", path, err)
			}
			out.Skipped++
			out.Results = append(out.Results, r)
			opt.logf("sweep: skip %s (checkpointed)", c.ID())
			continue
		}
		pending = append(pending, c)
	}
	opt.logf("sweep: %s — %d cells, %d checkpointed, %d to run",
		spec.Name, len(cells), out.Skipped, len(pending))

	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = spec.Jobs
	}
	r := &runner{spec: spec, opt: opt, cellsDir: cellsDir, out: out}
	r.trainSurrogates(ctx, pending)
	linalg.ParallelEach(len(pending), jobs, func(i int) {
		if ctx.Err() == nil {
			r.execute(ctx, pending[i])
		}
	})

	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].ID < out.Results[j].ID })
	sort.Slice(out.Failures, func(i, j int) bool { return out.Failures[i].ID < out.Failures[j].ID })
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("sweep: interrupted with %d/%d cells checkpointed: %w",
			out.Skipped+out.Executed, len(cells), err)
	}
	out.Summary = summarize(spec.Name, out.Results, len(out.Failures))
	if err := writeAtomicJSON(filepath.Join(opt.Dir, "summary.json"), out.Summary); err != nil {
		return out, err
	}
	return out, nil
}

// runner is the shared state of one Run's workers.
type runner struct {
	spec     Spec
	opt      Options
	cellsDir string

	mu  sync.Mutex
	out *Outcome

	// surrogates holds each array size's GENIEx surrogate. It is
	// filled before any cell runs, so cells only read it.
	surrogates map[int]surrogate
}

// surrogate is one array size's trained GENIEx model, or the error
// that training it gave.
type surrogate struct {
	m   *core.Model
	err error
}

// execute runs one cell with panic isolation: a panicking cell is
// recorded as failed and the sweep keeps going.
func (r *runner) execute(ctx context.Context, c Cell) {
	var res Result
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panicked: %v", p)
			}
		}()
		if cellHook != nil {
			cellHook(c)
		}
		if r.opt.CellDelay > 0 {
			select {
			case <-time.After(r.opt.CellDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		res, err = r.runCell(c)
		return err
	}()
	if err != nil {
		r.mu.Lock()
		r.out.Failures = append(r.out.Failures, Failure{ID: c.ID(), Err: err.Error()})
		r.mu.Unlock()
		r.opt.logf("sweep: FAIL %s: %v", c.ID(), err)
		return
	}
	if err := writeAtomicJSON(filepath.Join(r.cellsDir, c.ID()+".json"), res); err != nil {
		r.mu.Lock()
		r.out.Failures = append(r.out.Failures, Failure{ID: c.ID(), Err: err.Error()})
		r.mu.Unlock()
		r.opt.logf("sweep: FAIL %s: %v", c.ID(), err)
		return
	}
	r.mu.Lock()
	r.out.Executed++
	r.out.Results = append(r.out.Results, res)
	r.mu.Unlock()
	r.opt.logf("sweep: done %s rrmse=%.4g degraded=%.3f", c.ID(), res.RRMSE, res.DegradedFraction)
}

// cellConfig builds the cell's functional-simulator architecture: the
// paper's digit widths on a cheap 8-bit numeric format, serial batch
// solving (grid-level concurrency is the parallelism axis; each MVM's
// tiles still fan out to whatever pool workers sit idle).
func (r *runner) cellConfig(size int, sc *nonideal.Scenario) (funcsim.Config, xbar.Config, error) {
	xcfg, err := xbar.NewConfig(size, size, xbar.WithBatchWorkers(1))
	if err != nil {
		return funcsim.Config{}, xbar.Config{}, err
	}
	fx := quant.FxP{Bits: 8, Frac: 5}
	cfg, err := funcsim.NewConfig(xcfg,
		funcsim.WithFormats(fx, fx),
		funcsim.WithStreamBits(4), funcsim.WithSliceBits(4),
		funcsim.WithScenario(sc))
	return cfg, xcfg, err
}

// workload returns the cell's weight matrix and input batch. Both are
// pure functions of the array size, so every (stack, model, seed) cell
// of one size measures the same computation under different faults.
func (r *runner) workload(size int) (w, x *linalg.Dense) {
	rng := linalg.NewRNG(nonideal.DeriveSeed(0x5eed0b5e, uint64(size)))
	w = linalg.NewDense(size, size)
	for i := range w.Data {
		w.Data[i] = rng.Norm() / 2
	}
	batch := r.spec.Batch
	if batch <= 0 {
		batch = 4
	}
	x = linalg.NewDense(batch, size)
	for i := range x.Data {
		x.Data[i] = rng.Norm() / 2
	}
	return w, x
}

// runCell performs one deterministic measurement.
func (r *runner) runCell(c Cell) (Result, error) {
	sc := &nonideal.Scenario{Stack: c.Stack.Stack, Seed: c.Seed, Time: r.spec.Time}
	cfg, xcfg, err := r.cellConfig(c.Size, sc)
	if err != nil {
		return Result{}, err
	}
	w, x := r.workload(c.Size)

	// Clean ideal reference: same weights, same inputs, no scenario.
	refCfg := cfg
	refCfg.Scenario = nil
	refEng, err := funcsim.NewEngine(refCfg, funcsim.Ideal{})
	if err != nil {
		return Result{}, err
	}
	refM, err := refEng.Lower(w)
	if err != nil {
		return Result{}, err
	}
	ref, err := refM.MVM(x)
	if err != nil {
		return Result{}, err
	}

	spec, err := funcsim.ModelByName(c.Model)
	if err != nil {
		return Result{}, err
	}
	// Degraded circuit handling: a fault-ridden cell that defeats even
	// solver recovery still completes with zeroed currents, so one
	// pathological cell cannot wedge the sweep.
	params := funcsim.ModelParams{Xbar: xcfg, Degraded: true}
	if spec.NeedsSurrogate {
		sur := r.surrogates[c.Size]
		if sur.err != nil {
			return Result{}, sur.err
		}
		params.Surrogate = sur.m
	}
	model, err := spec.New(params)
	if err != nil {
		return Result{}, err
	}
	eng, err := funcsim.NewEngine(cfg, model)
	if err != nil {
		return Result{}, err
	}
	lm, err := eng.Lower(w)
	if err != nil {
		return Result{}, err
	}
	got, err := lm.MVM(x)
	if err != nil {
		return Result{}, err
	}

	var sumSq, refSq, maxAbs float64
	for i := range got.Data {
		d := got.Data[i] - ref.Data[i]
		sumSq += d * d
		refSq += ref.Data[i] * ref.Data[i]
		if a := math.Abs(d); a > maxAbs {
			maxAbs = a
		}
	}
	n := float64(len(got.Data))
	rrmse := math.Sqrt(sumSq/n) / (math.Sqrt(refSq/n) + 1e-30)

	rep := lm.NonIdeal()
	return Result{
		ID:    c.ID(),
		Size:  c.Size,
		Stack: c.Stack.Name,
		Model: c.Model,
		Seed:  c.Seed,

		RRMSE:            rrmse,
		MaxAbsErr:        maxAbs,
		DegradedFraction: rep.DegradedFraction(),
		StuckCells:       rep.Stuck,
		TouchedCells:     rep.Touched,
		Crossbars:        lm.Crossbars(),
	}, nil
}

// trainSurrogates trains, before any cell runs, the GENIEx surrogate of
// every size that a pending cell needs one for. It trains on the
// caller, so dataset generation and Adam fan out over the whole pool.
// Trained by the first cell of its size, a fit would run on one core
// while the size's other cells held the pool's other workers waiting
// for it. A training error or panic fails every cell of the size, as
// it did the cell that trained.
func (r *runner) trainSurrogates(ctx context.Context, pending []Cell) {
	r.surrogates = map[int]surrogate{}
	for _, c := range pending {
		if ctx.Err() != nil {
			return
		}
		spec, err := funcsim.ModelByName(c.Model)
		if _, done := r.surrogates[c.Size]; done || err != nil || !spec.NeedsSurrogate {
			continue
		}
		var s surrogate
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.err = fmt.Errorf("panicked: %v", p)
				}
			}()
			s.m, s.err = r.trainSurrogate(c.Size)
		}()
		r.surrogates[c.Size] = s
		if s.err != nil {
			r.opt.logf("sweep: %dx%d GENIEx surrogate failed: %v", c.Size, c.Size, s.err)
		} else {
			r.opt.logf("sweep: trained the %dx%d GENIEx surrogate", c.Size, c.Size)
		}
	}
}

// trainSurrogate trains the GENIEx surrogate of one array size's
// design point. The training seed derives from the size alone, and
// dataset generation and Adam are both deterministic, so a resumed
// sweep retrains bit-identical surrogates.
func (r *runner) trainSurrogate(size int) (*core.Model, error) {
	_, xcfg, err := r.cellConfig(size, nil)
	if err != nil {
		return nil, err
	}
	g := r.spec.GENIEx.withDefaults()
	seed := nonideal.DeriveSeed(0x9e11e, uint64(xcfg.Rows))
	ds, err := core.Generate(xcfg, core.GenOptions{
		Samples: g.Samples, StreamBits: 4, SliceBits: 4, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("surrogate dataset: %w", err)
	}
	m, err := core.NewModel(xcfg, g.Hidden, seed+1)
	if err != nil {
		return nil, err
	}
	if err := m.Train(ds, core.TrainOptions{Epochs: g.Epochs, Seed: seed + 2}); err != nil {
		return nil, fmt.Errorf("surrogate training: %w", err)
	}
	return m, nil
}

// summarize aggregates results into per-(size, stack, model) groups.
func summarize(name string, results []Result, failed int) Summary {
	byKey := map[string]*GroupStats{}
	var keys []string
	for _, r := range results {
		k := r.GroupKey()
		g, ok := byKey[k]
		if !ok {
			g = &GroupStats{Key: k, Size: r.Size, Stack: r.Stack, Model: r.Model, MinRRMSE: math.Inf(1)}
			byKey[k] = g
			keys = append(keys, k)
		}
		g.Seeds++
		g.MeanRRMSE += r.RRMSE
		g.MinRRMSE = math.Min(g.MinRRMSE, r.RRMSE)
		g.MaxRRMSE = math.Max(g.MaxRRMSE, r.RRMSE)
		g.MeanDegraded += r.DegradedFraction
		g.MeanStuckCells += float64(r.StuckCells)
		g.MeanTouchedCells += float64(r.TouchedCells)
	}
	sort.Strings(keys)
	sum := Summary{Name: name, Cells: len(results), Failed: failed}
	for _, k := range keys {
		g := byKey[k]
		n := float64(g.Seeds)
		g.MeanRRMSE /= n
		g.MeanDegraded /= n
		g.MeanStuckCells /= n
		g.MeanTouchedCells /= n
		sum.Groups = append(sum.Groups, *g)
	}
	return sum
}

// checkSpecFile writes spec.json on a fresh run or verifies the
// resumed spec matches it: resuming a directory under a different grid
// would mix incomparable results.
func checkSpecFile(spec Spec, dir string) error {
	path := filepath.Join(dir, "spec.json")
	want, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if _, err := os.Stat(path); err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		return writeAtomic(path, append(want, '\n'))
	}
	var onDisk Spec
	if err := readJSON(path, &onDisk); err != nil {
		return fmt.Errorf("sweep: unreadable %s: %w", path, err)
	}
	have, err := json.MarshalIndent(onDisk, "", "  ")
	if err != nil {
		return err
	}
	if string(have) != string(want) {
		return fmt.Errorf("sweep: spec does not match %s — resume with the original spec or use a fresh directory", path)
	}
	return nil
}

// writeAtomicJSON marshals v and writes it atomically.
func writeAtomicJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, append(b, '\n'))
}

// writeAtomic writes data via a temp file in the target directory plus
// rename, so a checkpoint is either fully present or absent — a crash
// mid-write can never leave a truncated cell file for resume to trust.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readJSON loads one JSON file into v.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
