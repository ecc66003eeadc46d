package calib

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geniex/internal/core"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// Config wires a Calibrator to its engine.
type Config struct {
	// Model is the initial GENIEx surrogate — the weights live traffic
	// currently runs on. The calibrator clones it before every tuning
	// round and never mutates it (or any published model) in place.
	Model *core.Model
	// Swap publishes a fine-tuned model into live traffic and returns
	// the new model version. Wire it to the engine:
	//
	//	Swap: func(m *core.Model) (int64, error) {
	//	    return eng.SwapModel(funcsim.GENIEx{Model: m})
	//	}
	Swap func(*core.Model) (int64, error)
	// Probe, when non-nil, feeds the calibrator: its tap captures
	// shadow-solve pairs. With a nil Probe the caller feeds samples
	// through Observe.
	Probe *funcsim.Probe

	// Reservoir sizes the sample store; its conductance window is
	// filled from Model.Cfg when zero.
	Reservoir ReservoirConfig

	// Trigger decides whether a tuning round is warranted: a round
	// runs only when it returns true. geniex-serve wires the predicate
	// that also distrusts the tier here (probe drift past -drift-limit,
	// or the fidelity SLO's burn rate at 1 or more). A nil Trigger
	// passes every check, so rounds are bounded only by MinSamples and
	// the duty cycle. Called on the calibrator's worker goroutine; must
	// be fast and non-blocking.
	Trigger func() bool
	// MinSamples is the fewest reservoir samples a round trains on.
	// Default 32.
	MinSamples int

	// LR is the Adam learning rate for fine-tuning. Default 1e-3.
	LR float64
	// BatchSize is the fine-tuning minibatch size. Default 16.
	BatchSize int
	// Steps bounds the Adam steps of one round. Default 200.
	Steps int
	// DutyFactor bounds the worker's CPU share the way the probe's
	// duty cycle does: after a round that took d, no new round starts
	// for DutyFactor×d. Default 8.
	DutyFactor int
	// MinImprovement is the relative in-sample rRMSE improvement a
	// tuned model must show before it is published (post ≤
	// pre·(1−MinImprovement)); rounds that fail it are counted and
	// discarded. Default 0.05.
	MinImprovement float64
	// Seed drives reservoir replacement and minibatch sampling; a
	// fixed seed, sample log and round schedule reproduce the tuned
	// weights bit-for-bit.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MinSamples == 0 {
		c.MinSamples = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Steps == 0 {
		c.Steps = 200
	}
	if c.DutyFactor == 0 {
		c.DutyFactor = 8
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 0.05
	}
	return c
}

// Round reports one tuning round's outcome.
type Round struct {
	// Samples and Steps are the snapshot size and Adam steps taken.
	Samples, Steps int
	// Pre and Post are the in-sample mean rRMSE of the model before
	// and after tuning.
	Pre, Post float64
	// Published reports whether the tuned model was hot-swapped in;
	// Version is the engine version it became (0 when unpublished).
	Published bool
	Version   int64
}

// Calibrator runs the probe-fed background fine-tuning loop. Create
// with New, stop with Close. All heavy work happens on the
// calibrator's own goroutine; the capture path (the probe tap) costs
// two row copies per solved probe and never blocks.
type Calibrator struct {
	cfg   Config
	res   *Reservoir
	floor float64 // dark-tile rRMSE floor of the design point

	// current is the latest published model (or the initial one);
	// rounds clone it, so published weights are immutable.
	curMu   sync.Mutex
	current *core.Model

	// cooldownUntil is the duty-cycle gate, nanoseconds since start.
	start         time.Time
	cooldownUntil atomic.Int64

	roundMu sync.Mutex // one tuning round at a time

	notify    chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	rounds, skipped, published, rejected atomic.Int64
	version                              atomic.Int64
}

// New builds a calibrator, installs its tap on cfg.Probe (when
// given), and starts the background worker. Close detaches the tap
// and stops the worker.
func New(cfg Config) (*Calibrator, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("calib: Config.Model is required")
	}
	if cfg.Swap == nil {
		return nil, fmt.Errorf("calib: Config.Swap is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Reservoir.GLo == 0 && cfg.Reservoir.GHi == 0 {
		cfg.Reservoir.GLo = cfg.Model.Cfg.Goff()
		cfg.Reservoir.GHi = cfg.Model.Cfg.Gon()
	}
	res, err := NewReservoir(cfg.Reservoir)
	if err != nil {
		return nil, err
	}
	xcfg := cfg.Model.Cfg
	c := &Calibrator{
		cfg:     cfg,
		res:     res,
		floor:   xbar.CurrentFloor * float64(xcfg.Rows) * xcfg.Vsupply * xcfg.Gon(),
		current: cfg.Model,
		start:   time.Now(),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if cfg.Probe != nil {
		cfg.Probe.SetTap(c.Observe)
	}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Observe feeds one shadow-solve into the calibrator; it is the
// funcsim.ProbeTap New installs. Runs on the probe worker: it copies
// the sample into the reservoir (dropping, never blocking, when
// contended) and nudges the background worker.
func (c *Calibrator) Observe(v []float64, g *linalg.Dense, circuit []float64, rrmse float64) {
	if !c.res.Add(v, g, circuit, rrmse) {
		return
	}
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// loop is the duty-cycle-bounded worker: woken by captured samples,
// it checks the triggers and runs at most one tuning round per wake.
func (c *Calibrator) loop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-c.notify:
			if !c.shouldRound() {
				continue
			}
			// A round that fails to publish shows in Stats as a round
			// neither rejected nor published.
			_, _ = c.RunRound()
		}
	}
}

// shouldRound applies the non-timer checks: enough samples, outside
// the duty-cycle cool-down, and the Trigger (when set) showing the live
// model out of spec. Recalibration is deliberately signal-driven, not
// timer-driven: a healthy model is never retrained, no matter how long
// it runs.
func (c *Calibrator) shouldRound() bool {
	if time.Since(c.start).Nanoseconds() < c.cooldownUntil.Load() {
		c.skipped.Add(1)
		return false
	}
	if c.res.Len() < c.cfg.MinSamples {
		return false
	}
	if c.cfg.Trigger != nil && !c.cfg.Trigger() {
		c.skipped.Add(1)
		return false
	}
	return true
}

// RunRound executes one fine-tuning round synchronously: snapshot the
// reservoir, clone the current model, run the bounded Adam schedule,
// evaluate pre/post in-sample rRMSE, and publish through the Swap
// hook when the improvement clears Config.MinImprovement. The
// background worker calls it when triggered; tests and smokes may
// call it directly (rounds are serialized either way, and the duty
// cycle applies to both).
func (c *Calibrator) RunRound() (Round, error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	t0 := time.Now()
	defer func() {
		// Duty-cycle bound, mirroring the probe worker's discipline.
		busy := time.Since(t0).Nanoseconds()
		c.cooldownUntil.Store(time.Since(c.start).Nanoseconds() + int64(c.cfg.DutyFactor)*busy)
	}()

	samples := c.res.Snapshot()
	if len(samples) == 0 {
		return Round{}, fmt.Errorf("calib: tuning round with an empty reservoir")
	}
	roundIdx := c.rounds.Add(1)

	c.curMu.Lock()
	base := c.current
	c.curMu.Unlock()

	pre := meanRRMSE(base, samples, c.floor)
	tuned := base.Clone()
	steps := c.tune(tuned, samples, roundIdx)
	post := meanRRMSE(tuned, samples, c.floor)

	r := Round{Samples: len(samples), Steps: steps, Pre: pre, Post: post}
	if post > pre*(1-c.cfg.MinImprovement) {
		c.rejected.Add(1)
		return r, nil
	}
	version, err := c.cfg.Swap(tuned)
	if err != nil {
		return r, fmt.Errorf("calib: publish tuned model: %w", err)
	}
	c.curMu.Lock()
	c.current = tuned
	c.curMu.Unlock()
	c.published.Add(1)
	c.version.Store(version)
	r.Published, r.Version = true, version
	return r, nil
}

// tune runs the bounded minibatch schedule on a cloned model.
// Minibatches are drawn with a round-keyed deterministic RNG, so a
// fixed sample log reproduces the weights exactly.
func (c *Calibrator) tune(m *core.Model, samples []Sample, roundIdx int64) int {
	n := len(samples)
	in := linalg.NewDense(n, m.InputDim())
	labels := linalg.NewDense(n, m.Cfg.Cols)
	for i, s := range samples {
		m.AssembleInput(in.Row(i), s.V, s.G)
		m.AssembleLabel(labels.Row(i), s.V, s.G, s.Circuit)
	}

	tuner := m.NewTuner(c.cfg.LR)
	rng := linalg.NewRNG(c.cfg.Seed + uint64(roundIdx)*0x9e3779b97f4a7c15)
	bs := c.cfg.BatchSize
	if bs > n {
		bs = n
	}
	bx := linalg.NewDense(bs, in.Cols)
	by := linalg.NewDense(bs, labels.Cols)
	steps := 0
	for steps < c.cfg.Steps {
		perm := rng.Perm(n)
		for lo := 0; lo+bs <= n && steps < c.cfg.Steps; lo += bs {
			for i, s := range perm[lo : lo+bs] {
				copy(bx.Row(i), in.Row(s))
				copy(by.Row(i), labels.Row(s))
			}
			tuner.Step(bx, by)
			steps++
		}
	}
	return steps
}

// Current returns the latest published model (the initial one until a
// round publishes). The returned model is immutable.
func (c *Calibrator) Current() *core.Model {
	c.curMu.Lock()
	defer c.curMu.Unlock()
	return c.current
}

// Stats is a point-in-time view of the calibrator.
type Stats struct {
	// Reservoir is the capture side: samples captured/dropped/held.
	Reservoir ReservoirStats
	// Rounds counts tuning rounds started; Skipped the wake-ups
	// refused by the duty cycle or triggers; Rejected the rounds whose
	// tuned model failed the improvement bar; Published the hot-swaps.
	Rounds, Skipped, Rejected, Published int64
	// Version is the engine model version of the last publish (0
	// before the first).
	Version int64
}

// Stats returns a snapshot of the calibrator's counters.
func (c *Calibrator) Stats() Stats {
	return Stats{
		Reservoir: c.res.Stats(),
		Rounds:    c.rounds.Load(),
		Skipped:   c.skipped.Load(),
		Rejected:  c.rejected.Load(),
		Published: c.published.Load(),
		Version:   c.version.Load(),
	}
}

// String summarizes the calibrator state in one line.
func (s Stats) String() string {
	return fmt.Sprintf("calibrator: %d captured (%d dropped, %d held), %d rounds (%d skipped, %d rejected), %d published, version %d",
		s.Reservoir.Captured, s.Reservoir.Dropped, s.Reservoir.Held,
		s.Rounds, s.Skipped, s.Rejected, s.Published, s.Version)
}

// Close detaches the probe tap and stops the background worker. Safe
// to call more than once; a tuning round in flight completes first.
func (c *Calibrator) Close() {
	c.closeOnce.Do(func() {
		if c.cfg.Probe != nil {
			c.cfg.Probe.SetTap(nil)
		}
		close(c.done)
	})
	c.wg.Wait()
}
