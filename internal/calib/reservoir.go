// Package calib closes the loop the fidelity probe opened: the probe
// already shadow-solves sampled tile MVMs through the circuit solver,
// which is exactly a live stream of GENIEx training pairs
// (V, G) → I_circuit. This package captures that stream into a
// bounded reservoir, fine-tunes a copy of the GENIEx MLP in the
// background when the probe's drift says fidelity degraded, and
// publishes the result as an immutable versioned model through an
// atomic hot-swap hook (funcsim.Engine.SwapModel). Fidelity becomes a
// controlled quantity instead of a configuration choice — the
// adaptive counterpart of the paper's train-once surrogate.
//
// Discipline mirrors the probe's: nothing in the capture path blocks
// (contended samples are dropped and counted), the fine-tune worker
// is duty-cycle bounded, and recalibration is triggered by the
// probe's EWMA and drift rather than a timer. Given a fixed
// sample log and round schedule, reservoir contents and fine-tuned
// weights are bit-reproducible from the configured seed.
package calib

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"geniex/internal/linalg"
)

// Sample is one captured shadow-solve: the drive voltages, the tile's
// programmed conductances, and the circuit-solved output currents —
// one GENIEx training pair, labelled by the same solver that labels
// offline datasets. V and Circuit are owned by the sample; G is a
// reference to the engine's retained conductance matrix, immutable
// after lowering and stable across model hot-swaps.
type Sample struct {
	V       []float64
	G       *linalg.Dense
	Circuit []float64
	// RRMSE is the model-vs-circuit divergence the probe measured
	// when the sample was captured (against the model version live at
	// that moment).
	RRMSE float64
}

// ReservoirConfig sizes the sample reservoir.
type ReservoirConfig struct {
	// Regimes partitions samples by conductance regime: the mean
	// normalized conductance of a sample's tile selects one of
	// Regimes equal-width buckets in [0, 1]. Keeping per-regime
	// quotas stops a workload dominated by one conductance range
	// (e.g. mostly-dark tiles) from evicting the samples that cover
	// the rest of the surrogate's input space. Default 4.
	Regimes int
	// PerRegime bounds each regime's sample count. Default 48.
	PerRegime int
	// Seed drives the reservoir's replacement decisions; a fixed seed
	// and sample sequence reproduce the reservoir bit-for-bit.
	Seed uint64
	// GLo and GHi are the conductance window bounds used to normalize
	// regime positions (the model's Goff/Gon).
	GLo, GHi float64
}

func (c ReservoirConfig) withDefaults() ReservoirConfig {
	if c.Regimes == 0 {
		c.Regimes = 4
	}
	if c.PerRegime == 0 {
		c.PerRegime = 48
	}
	return c
}

// Validate reports whether the configuration is consistent.
func (c ReservoirConfig) Validate() error {
	if c.Regimes < 1 {
		return fmt.Errorf("calib: reservoir with %d regimes", c.Regimes)
	}
	if c.PerRegime < 1 {
		return fmt.Errorf("calib: reservoir with %d samples per regime", c.PerRegime)
	}
	if !(c.GHi > c.GLo) {
		return fmt.Errorf("calib: reservoir conductance window [%g, %g] is empty", c.GLo, c.GHi)
	}
	return nil
}

// regimeRes is one conductance regime's uniform reservoir
// (Algorithm R): after the quota fills, the i-th arrival replaces a
// random kept sample with probability quota/i, so the kept set stays
// a uniform sample of everything seen.
type regimeRes struct {
	rng     *linalg.RNG
	seen    int64
	samples []Sample
}

// Reservoir is a bounded, seedable sample store fed from the probe
// tap. Add never blocks: when another goroutine holds the reservoir
// (a training snapshot in progress), the sample is dropped and
// counted, mirroring the probe's drops-never-blocks queue discipline.
type Reservoir struct {
	cfg ReservoirConfig

	mu      sync.Mutex
	regimes []regimeRes

	captured, dropped atomic.Int64
}

// NewReservoir builds an empty reservoir.
func NewReservoir(cfg ReservoirConfig) (*Reservoir, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Reservoir{cfg: cfg, regimes: make([]regimeRes, cfg.Regimes)}
	for i := range r.regimes {
		// Independent per-regime streams keep replacement decisions
		// inside one regime unaffected by arrivals in the others.
		r.regimes[i].rng = linalg.NewRNG(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	return r, nil
}

// regimeOf buckets a sample by its tile's mean normalized
// conductance.
func (r *Reservoir) regimeOf(g *linalg.Dense) int {
	var sum float64
	for _, x := range g.Data {
		sum += x
	}
	mean := sum / float64(len(g.Data))
	pos := (mean - r.cfg.GLo) / (r.cfg.GHi - r.cfg.GLo)
	idx := int(pos * float64(r.cfg.Regimes))
	if idx < 0 {
		idx = 0
	}
	if idx >= r.cfg.Regimes {
		idx = r.cfg.Regimes - 1
	}
	return idx
}

// Add offers one shadow-solve to the reservoir, copying v and circuit
// (the caller's buffers are reused) and referencing g (immutable
// after lowering). It never blocks: a contended reservoir drops the
// sample and counts it. Reports whether the sample was kept (false
// for both drops and Algorithm-R rejections).
func (r *Reservoir) Add(v []float64, g *linalg.Dense, circuit []float64, rrmse float64) bool {
	if !r.mu.TryLock() {
		r.dropped.Add(1)
		return false
	}
	defer r.mu.Unlock()
	r.captured.Add(1)

	reg := &r.regimes[r.regimeOf(g)]
	reg.seen++
	slot := -1
	if len(reg.samples) < r.cfg.PerRegime {
		reg.samples = append(reg.samples, Sample{})
		slot = len(reg.samples) - 1
	} else if j := reg.rng.Intn(int(reg.seen)); j < r.cfg.PerRegime {
		slot = j
	}
	if slot < 0 {
		return false
	}
	// Fresh buffers per kept sample: snapshots hand out the sample
	// structs by value, so a later replacement of this slot must not
	// mutate data a training round already holds.
	s := Sample{
		V:       append([]float64(nil), v...),
		G:       g,
		Circuit: append([]float64(nil), circuit...),
		RRMSE:   rrmse,
	}
	reg.samples[slot] = s
	return true
}

// Snapshot returns the kept samples of every regime, in deterministic
// regime-major order. The returned samples are immutable (replacement
// never mutates handed-out buffers), so a training round can hold a
// snapshot while capture continues.
func (r *Reservoir) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for i := range r.regimes {
		out = append(out, r.regimes[i].samples...)
	}
	return out
}

// Len reports how many samples the reservoir currently holds.
func (r *Reservoir) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.regimes {
		n += len(r.regimes[i].samples)
	}
	return n
}

// ReservoirStats is a point-in-time view of the capture counters.
type ReservoirStats struct {
	// Captured counts samples that reached the reservoir (kept or
	// rejected by Algorithm R); Dropped counts samples shed because
	// the reservoir was contended. Held is the current sample count.
	Captured, Dropped int64
	Held              int
}

// Stats returns a snapshot of the reservoir's counters.
func (r *Reservoir) Stats() ReservoirStats {
	return ReservoirStats{
		Captured: r.captured.Load(),
		Dropped:  r.dropped.Load(),
		Held:     r.Len(),
	}
}

// meanRRMSE averages a model's divergence against every snapshot
// sample: predicted non-ideal currents vs the circuit-solved ones,
// with the probe's relative-RMSE metric (including its dark-tile
// floor).
func meanRRMSE(m predictor, samples []Sample, floor float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	pred := make([]float64, len(samples[0].Circuit))
	for _, s := range samples {
		m.NonIdealCurrentsInto(pred, s.V, s.G)
		sum += relRMSE(pred, s.Circuit, floor)
	}
	return sum / float64(len(samples))
}

// predictor is the slice of core.Model the evaluator needs.
type predictor interface {
	NonIdealCurrentsInto(dst, v []float64, g *linalg.Dense)
}

// relRMSE mirrors the probe's divergence metric: RMSE between model
// and circuit currents normalized by the circuit RMS, floored so dark
// tiles cannot blow the ratio up.
func relRMSE(model, circuit []float64, floor float64) float64 {
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
	rms := math.Sqrt(den / n)
	if rms < floor {
		rms = floor
	}
	return math.Sqrt(num/n) / rms
}
