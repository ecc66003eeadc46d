package funcsim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
	"geniex/internal/xbar"
)

// DefaultProbeQueue is the bounded depth of the probe's background
// queue: enough to ride out a burst of sampled tiles while one circuit
// solve is in flight, small enough that a stalled solver costs bounded
// memory and everything beyond it is dropped (and counted) instead of
// queued.
const DefaultProbeQueue = 64

// probeBaselineSolves is how many successful shadow-solves the probe
// averages into its recorded baseline before Stats reports drift.
const probeBaselineSolves = 16

// probeDutyFactor bounds the shadow-solver's CPU share: after a solve
// that took d, the probe refuses new samples for probeDutyFactor×d, so
// the worker goroutine is busy at most 1/(1+probeDutyFactor) ≈ 3% of
// the time. Circuit solves cost orders of magnitude more than the tile
// MVMs they check, so without this bound a saturating workload would
// keep the worker at 100% of a core and dent MVM throughput on small
// machines; with it, probing costs the hot path one atomic add per
// tile task regardless of how expensive the solves are.
const probeDutyFactor = 32

// Probe is the online fidelity monitor of the functional simulator: at
// a configured 1-in-N rate it samples a live tile MVM — the tile's
// programmed conductances, its first live drive-voltage row, and the
// analog model's output currents for that row over the columns the
// layer reads — and shadow-solves the same inputs through the xbar
// circuit solver on a background goroutine. Each solve publishes the
// relative RMSE of the model's currents against the circuit solver's
// over those columns (the online analogue of the paper's Fig. 5
// divergence metric) into the funcsim.probe.rrmse histogram and counts
// itself in funcsim.probe.solved. Stats holds the rest: the outcome
// counters, a smoothed divergence level (EWMA), the baseline recorded
// from the first solves, their difference (the drift a calibrator or
// an operator alerts on), and per-tile RRMSE and non-ideality-factor
// aggregates split by sign per Fig. 2's definition.
//
// Cost contract: the MVM hot path pays one nil check per tile task,
// one atomic add per sampled decision, and — for the 1-in-N sampled
// tasks — two row copies into pooled buffers. Nothing on the hot path
// blocks: samples arriving inside the worker's duty-cycle cool-down
// are refused (counted as paced; see probeDutyFactor), and when the
// bounded queue (or its job freelist) is exhausted the sample is
// dropped and counted. All solver work happens on the probe's own
// goroutine.
type Probe struct {
	cfg   xbar.Config
	rate  int64
	ticks atomic.Int64

	// start anchors the pacing clock; nextOK is the earliest offset (in
	// nanoseconds since start) at which the next sample is accepted,
	// advanced by the worker after every solve (see probeDutyFactor).
	start  time.Time
	nextOK atomic.Int64

	jobs    chan *probeJob
	pending atomic.Int64 // queued + in-flight jobs

	freeMu sync.Mutex
	free   []*probeJob

	closeOnce sync.Once
	done      chan struct{}

	// Per-probe outcome counters backing Stats. paced counts samples
	// refused by the duty-cycle bound, dropped those shed at a full
	// queue or empty freelist.
	sampled, paced, dropped, solved, failures obs.Counter

	// mu guards the aggregate divergence state below; only the worker
	// writes, Stats and SetBaseline read/write under the same lock.
	mu           sync.Mutex
	ewma         float64
	haveEWMA     bool
	baseline     float64
	haveBaseline bool
	baselineSum  float64
	baselineN    int
	tiles        map[probeTileKey]*probeTileAgg

	// solveHook, when non-nil, replaces the circuit shadow-solve; the
	// tests use it to stall the worker deterministically. Stored
	// atomically so tests can install and remove it while the worker
	// runs (setSolveHook).
	solveHook atomic.Pointer[func(*probeJob)]

	// tap, when set, receives every successful shadow-solve (see
	// SetTap). Stored atomically so SetTap is safe while the worker
	// runs.
	tap atomic.Pointer[ProbeTap]

	// onSample, when set, receives every successful shadow-solve's
	// rRMSE (see OnSample). It is a separate, lighter hook than the
	// tap: the tap is the calibration feed (single consumer, claimed
	// by the calibrator), while onSample exists for fidelity SLO
	// accounting and can coexist with any tap.
	onSample atomic.Pointer[func(rrmse float64)]
}

// ProbeTap observes one successful shadow-solve: the sampled drive
// voltages, the tile's programmed conductances, the circuit-solved
// output currents, and the model-vs-circuit relative RMSE. The tap
// runs on the probe's worker goroutine between solves — it must be
// fast and must not block. v and circuit are reused buffers owned by
// the probe: a tap that retains them must copy. g is immutable after
// lowering and survives model hot-swaps, so referencing it is safe.
//
// This is the calibration feed: every tap invocation is exactly one
// GENIEx training pair (V, G) → I_circuit, labelled by the same
// solver that labels offline datasets.
type ProbeTap func(v []float64, g *linalg.Dense, circuit []float64, rrmse float64)

// SetTap installs (or, with nil, removes) the probe's shadow-solve
// tap. Safe to call concurrently with a running probe; the new tap
// takes effect at the next solve.
func (p *Probe) SetTap(t ProbeTap) {
	if t == nil {
		p.tap.Store(nil)
		return
	}
	p.tap.Store(&t)
}

// OnSample installs (or, with nil, removes) a per-sample rRMSE
// listener, called on the probe's worker goroutine after every
// successful shadow-solve — the feed for windowed fidelity SLO
// tracking (obs.SLO). Unlike the single calibration tap, OnSample is
// independent of SetTap, so an SLO tracker and a calibrator can
// observe the same probe. The listener must be fast and must not
// block.
func (p *Probe) OnSample(f func(rrmse float64)) {
	if f == nil {
		p.onSample.Store(nil)
		return
	}
	p.onSample.Store(&f)
}

// probeJob carries one sampled tile evaluation to the worker. The
// conductance matrix is referenced (tile conductances are immutable
// after lowering); voltages and model currents are copied into pooled
// buffers so the MVM scratch they came from can be reused immediately.
type probeJob struct {
	mat, tr, tc, slice int
	g                  *linalg.Dense
	v, model           []float64
}

// probeTileKey identifies a (matrix, tileRow, tileCol) block; matrix
// IDs are per-engine ordinals assigned at Lower time.
type probeTileKey struct{ mat, tr, tc int }

// probeTileAgg accumulates per-tile divergence: enough to answer
// "which tile drifted" without keeping raw samples.
type probeTileAgg struct {
	n        int
	sumRRMSE float64
	sumNF    float64
	posNF    int
	negNF    int
}

// ewmaAlpha smooths the rrmse level: ~0.1 weighs the last ~20 probes.
const ewmaAlpha = 0.1

func newProbe(cfg xbar.Config, rate, queue int) *Probe {
	if queue < 1 {
		queue = DefaultProbeQueue
	}
	p := &Probe{
		cfg:   cfg,
		rate:  int64(rate),
		start: time.Now(),
		jobs:  make(chan *probeJob, queue),
		done:  make(chan struct{}),
		tiles: map[probeTileKey]*probeTileAgg{},
	}
	// The freelist is the drop valve: queue-cap jobs plus one in
	// flight. An empty freelist means the pipeline is saturated, so
	// offer drops without allocating or blocking.
	p.free = make([]*probeJob, queue+1)
	for i := range p.free {
		p.free[i] = &probeJob{}
	}
	go p.loop()
	return p
}

// tick decides whether this tile task is sampled: one atomic add, true
// every rate-th call.
func (p *Probe) tick() bool {
	return p.ticks.Add(1)%p.rate == 0
}

// offer captures one sampled tile evaluation and enqueues it for
// shadow-solving. v is the first live drive row of the input block the
// tile just consumed, and curr the model's currents for that row over
// the columns the layer reads (the leading columns of the tile), so
// the shadow rRMSE compares exactly those. It never blocks: with no
// free job or no queue slot the sample is dropped and counted.
func (p *Probe) offer(mat, tr, tc, slice int, g *linalg.Dense, v, curr []float64) {
	p.sampled.Inc()

	// Duty-cycle bound: refuse the sample while inside the cool-down
	// the worker set after its last solve (time.Since is monotonic and
	// allocation-free; this runs only on the 1-in-rate sampled tasks).
	if time.Since(p.start).Nanoseconds() < p.nextOK.Load() {
		p.paced.Inc()
		return
	}

	p.freeMu.Lock()
	var j *probeJob
	if n := len(p.free); n > 0 {
		j = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.freeMu.Unlock()
	if j == nil {
		p.dropped.Inc()
		return
	}

	j.mat, j.tr, j.tc, j.slice = mat, tr, tc, slice
	j.g = g
	j.v = grow(j.v, len(v))
	copy(j.v, v)
	j.model = grow(j.model, len(curr))
	copy(j.model, curr)

	select {
	case p.jobs <- j:
		p.pending.Add(1)
	default:
		p.putJob(j)
		p.dropped.Inc()
	}
}

func (p *Probe) putJob(j *probeJob) {
	j.g = nil
	p.freeMu.Lock()
	p.free = append(p.free, j)
	p.freeMu.Unlock()
}

// loop is the probe's worker: it owns one reusable Crossbar instance
// and drains the queue until Close.
func (p *Probe) loop() {
	var xb *xbar.Crossbar
	for {
		select {
		case <-p.done:
			return
		case j := <-p.jobs:
			t0 := time.Now()
			p.solveJob(&xb, j)
			// Cool down for probeDutyFactor× the time this solve took,
			// bounding the worker's CPU share (see probeDutyFactor).
			busy := time.Since(t0).Nanoseconds()
			p.nextOK.Store(time.Since(p.start).Nanoseconds() + probeDutyFactor*busy)
			p.putJob(j)
			p.pending.Add(-1)
		}
	}
}

// setSolveHook installs (or, with nil, removes) the test-only solve
// replacement; takes effect at the worker's next job.
func (p *Probe) setSolveHook(h func(*probeJob)) {
	if h == nil {
		p.solveHook.Store(nil)
		return
	}
	p.solveHook.Store(&h)
}

func (p *Probe) solveJob(xb **xbar.Crossbar, j *probeJob) {
	if h := p.solveHook.Load(); h != nil {
		(*h)(j)
		return
	}
	if *xb == nil {
		n, err := xbar.New(p.cfg)
		if err != nil {
			p.failures.Inc()
			return
		}
		*xb = n
	}
	if err := (*xb).Program(j.g); err != nil {
		p.failures.Inc()
		return
	}
	sol, err := (*xb).Solve(j.v)
	if err != nil {
		p.failures.Inc()
		return
	}

	ideal := xbar.IdealCurrents(j.v, j.g)
	nf := xbar.NF(ideal, sol.Currents, p.cfg)
	rr := relRMSE(j.model, sol.Currents, p.cfg)

	p.solved.Inc()
	mProbeSolved.Inc()
	mProbeRRMSE.Observe(rr)
	p.fold(j, rr, nf)
	if f := p.onSample.Load(); f != nil {
		(*f)(rr)
	}
	if t := p.tap.Load(); t != nil {
		(*t)(j.v, j.g, sol.Currents, rr)
	}
}

// fold merges one solved probe into the EWMA / baseline / drift state
// and the per-tile aggregates.
func (p *Probe) fold(j *probeJob, rr float64, nf []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.haveEWMA {
		p.ewma += ewmaAlpha * (rr - p.ewma)
	} else {
		p.ewma, p.haveEWMA = rr, true
	}
	if !p.haveBaseline {
		p.baselineSum += rr
		p.baselineN++
		if p.baselineN >= probeBaselineSolves {
			p.baseline = p.baselineSum / float64(p.baselineN)
			p.haveBaseline = true
		}
	}

	key := probeTileKey{j.mat, j.tr, j.tc}
	agg := p.tiles[key]
	if agg == nil {
		agg = &probeTileAgg{}
		p.tiles[key] = agg
	}
	agg.n++
	agg.sumRRMSE += rr
	for _, v := range nf {
		agg.sumNF += v
		switch {
		case v > 0:
			agg.posNF++
		case v < 0:
			agg.negNF++
		}
	}
}

// SetBaseline records an explicit divergence baseline (e.g. replayed
// from a previous healthy run), overriding the auto-recorded one;
// Stats reports Drift = EWMA − baseline from then on.
func (p *Probe) SetBaseline(rrmse float64) {
	p.mu.Lock()
	p.baseline, p.haveBaseline = rrmse, true
	p.mu.Unlock()
}

// Drain blocks until every queued or in-flight probe has completed, or
// the timeout elapses; it reports whether the queue drained. Use it
// before reading final stats — the probe is asynchronous by design.
func (p *Probe) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Close stops the probe's worker goroutine. Safe to call more than
// once; queued jobs that have not been solved are discarded. Sampling
// calls arriving after Close drop (the queue is no longer drained).
func (p *Probe) Close() {
	p.closeOnce.Do(func() { close(p.done) })
}

// ProbeTileStats summarizes the solved probes of one tile block.
type ProbeTileStats struct {
	// Matrix is the engine-assigned ordinal of the lowered matrix the
	// tile belongs to (in lowering order); TileRow/TileCol locate the
	// block within it.
	Matrix, TileRow, TileCol int
	// Probes counts shadow-solves folded into this entry.
	Probes int
	// MeanRRMSE is the mean model-vs-circuit relative RMSE.
	MeanRRMSE float64
	// MeanNF is the mean circuit-solved non-ideality factor; PosNF and
	// NegNF count columns by NF sign (Fig. 2's distributions).
	MeanNF       float64
	PosNF, NegNF int
}

// ProbeStats is a point-in-time view of the probe.
type ProbeStats struct {
	// Sampled counts sampling decisions; Paced the samples refused by
	// the duty-cycle bound; Dropped the samples shed at a full queue;
	// Solved and Failures the shadow-solve outcomes.
	Sampled, Paced, Dropped, Solved, Failures int64
	// RRMSEEWMA is the smoothed divergence level; Baseline the
	// recorded reference (valid when BaselineRecorded); Drift their
	// difference.
	RRMSEEWMA, Baseline, Drift float64
	BaselineRecorded           bool
	// Tiles lists per-tile aggregates sorted by (Matrix, TileRow,
	// TileCol).
	Tiles []ProbeTileStats
}

// Stats returns a read-only snapshot of the probe's counters and
// divergence aggregates. Like every Stats accessor in the repo it
// never clears anything.
func (p *Probe) Stats() ProbeStats {
	s := ProbeStats{
		Sampled:  p.sampled.Load(),
		Paced:    p.paced.Load(),
		Dropped:  p.dropped.Load(),
		Solved:   p.solved.Load(),
		Failures: p.failures.Load(),
	}
	p.mu.Lock()
	s.RRMSEEWMA = p.ewma
	s.Baseline = p.baseline
	s.BaselineRecorded = p.haveBaseline
	if p.haveBaseline {
		s.Drift = p.ewma - p.baseline
	}
	for key, agg := range p.tiles {
		ts := ProbeTileStats{
			Matrix: key.mat, TileRow: key.tr, TileCol: key.tc,
			Probes: agg.n,
			PosNF:  agg.posNF, NegNF: agg.negNF,
		}
		if agg.n > 0 {
			ts.MeanRRMSE = agg.sumRRMSE / float64(agg.n)
			cols := float64(agg.n * p.cfg.Cols)
			ts.MeanNF = agg.sumNF / cols
		}
		s.Tiles = append(s.Tiles, ts)
	}
	p.mu.Unlock()
	sort.Slice(s.Tiles, func(i, j int) bool {
		a, b := s.Tiles[i], s.Tiles[j]
		if a.Matrix != b.Matrix {
			return a.Matrix < b.Matrix
		}
		if a.TileRow != b.TileRow {
			return a.TileRow < b.TileRow
		}
		return a.TileCol < b.TileCol
	})
	return s
}

// String summarizes the probe state in one line.
func (s ProbeStats) String() string {
	drift := "baseline pending"
	if s.BaselineRecorded {
		drift = fmt.Sprintf("baseline %.4g, drift %+.4g", s.Baseline, s.Drift)
	}
	return fmt.Sprintf("fidelity probe: %d sampled (%d paced, %d dropped), %d solved, %d failures, rrmse ewma %.4g (%s), %d tiles observed",
		s.Sampled, s.Paced, s.Dropped, s.Solved, s.Failures, s.RRMSEEWMA, drift, len(s.Tiles))
}

// relRMSE is the probe's divergence metric: the RMSE between the
// model's column currents and the circuit's leading ones (model may
// cover fewer columns than circuit), normalized by the RMS of those
// circuit currents (floored at a fraction of the design point's
// full-scale current so dark tiles cannot blow the ratio up).
func relRMSE(model, circuit []float64, cfg xbar.Config) float64 {
	if len(model) == 0 {
		return 0
	}
	var num, den float64
	for i := range model {
		d := model[i] - circuit[i]
		num += d * d
		den += circuit[i] * circuit[i]
	}
	n := float64(len(model))
	floor := xbar.CurrentFloor * float64(cfg.Rows) * cfg.Vsupply * cfg.Gon()
	rms := math.Sqrt(den / n)
	if rms < floor {
		rms = floor
	}
	return math.Sqrt(num/n) / rms
}
