package calib

import (
	"testing"
	"time"

	"geniex/internal/core"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// harshXbar is an aggressively non-ideal 8×8 design point: distortion
// is large enough that surrogate quality is measurable and a weak
// surrogate has real headroom to improve.
func harshXbar() xbar.Config {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	cfg.Ron = 25e3
	cfg.OnOffRatio = 2
	cfg.Rwire = 25
	cfg.Vsupply = 0.5
	return cfg
}

// weakSurrogate trains a deliberately under-fit GENIEx model — the
// "drifted in production" stand-in the calibrator is meant to repair.
func weakSurrogate(t *testing.T, cfg xbar.Config) *core.Model {
	t.Helper()
	ds, err := core.Generate(cfg, core.GenOptions{
		Samples:    120,
		StreamBits: 2, SliceBits: 2,
		Sparsities: []float64{0, 0.5},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(cfg, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ds, core.TrainOptions{Epochs: 4, BatchSize: 32, LR: 1e-3, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	return m
}

// circuitSamples labels n random tile evaluations through the circuit
// solver — the same pairs the probe tap would deliver in production.
func circuitSamples(t *testing.T, cfg xbar.Config, n int, seed uint64) []Sample {
	t.Helper()
	xb, err := xbar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := linalg.NewRNG(seed)
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		g := linalg.NewDense(cfg.Rows, cfg.Cols)
		for j := range g.Data {
			g.Data[j] = cfg.ConductanceFromLevel(rng.Float64())
		}
		v := make([]float64, cfg.Rows)
		for j := range v {
			v[j] = rng.Float64() * cfg.Vsupply
		}
		if err := xb.Program(g); err != nil {
			t.Fatal(err)
		}
		sol, err := xb.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{
			V: v, G: g,
			Circuit: append([]float64(nil), sol.Currents...),
		})
	}
	return samples
}

// feed loads samples into the calibrator's reservoir without waking
// the background worker, so tests drive RunRound deterministically.
func feed(c *Calibrator, samples []Sample) {
	for _, s := range samples {
		c.res.Add(s.V, s.G, s.Circuit, s.RRMSE)
	}
}

// A tuning round on circuit-labelled samples must measurably improve a
// weak surrogate's in-sample divergence and publish the result through
// the Swap hook; the published model must be a different object than
// the base (published weights are immutable).
func TestCalibratorRoundImprovesAndPublishes(t *testing.T) {
	cfg := harshXbar()
	base := weakSurrogate(t, cfg)

	var swapped *core.Model
	c, err := New(Config{
		Model: base,
		Swap: func(m *core.Model) (int64, error) {
			swapped = m
			return 2, nil
		},
		MinSamples: 16,
		Steps:      400,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	feed(c, circuitSamples(t, cfg, 48, 21))
	r, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 48 || r.Steps != 400 {
		t.Fatalf("round %+v, want 48 samples and 400 steps", r)
	}
	if r.Pre <= 0 {
		t.Fatalf("pre-tuning rrmse %g, want > 0 for a weak surrogate", r.Pre)
	}
	if r.Post >= r.Pre {
		t.Fatalf("tuning did not improve in-sample rrmse: pre %g, post %g", r.Pre, r.Post)
	}
	if !r.Published || r.Version != 2 {
		t.Fatalf("round %+v, want published at version 2", r)
	}
	if swapped == nil || swapped == base {
		t.Fatal("Swap hook did not receive a fresh model clone")
	}
	if c.Current() != swapped {
		t.Fatal("Current() is not the published model")
	}
	s := c.Stats()
	if s.Rounds != 1 || s.Published != 1 || s.Rejected != 0 || s.Version != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Stats summary")
	}

	// The duty cycle must refuse an immediate follow-up round.
	if c.shouldRound() {
		t.Error("shouldRound() true immediately after a round — duty cycle not applied")
	}
	if got := c.Stats().Skipped; got != 1 {
		t.Errorf("skipped = %d after duty-cycle refusal, want 1", got)
	}
}

// With enough samples held, the Trigger alone decides whether a
// wake-up of the background worker runs a round: false refuses every
// wake-up and counts it as skipped, true runs a round, and a nil
// Trigger passes every check.
func TestCalibratorTrigger(t *testing.T) {
	cfg := harshXbar()
	base := weakSurrogate(t, cfg)
	samples := circuitSamples(t, cfg, 16, 61)
	waitFor := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		trigger func() bool
		round   bool
	}{
		{"false", func() bool { return false }, false},
		{"true", func() bool { return true }, true},
		{"nil", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Model:      base,
				Swap:       func(*core.Model) (int64, error) { return 2, nil },
				Trigger:    tc.trigger,
				MinSamples: 16,
				Steps:      10,
				Seed:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			feed(c, samples)
			if tc.round {
				c.notify <- struct{}{}
				waitFor(t, "a round", func() bool { return c.Stats().Rounds == 1 })
				c.Close() // the round in flight completes first
				if s := c.Stats(); s.Skipped != 0 {
					t.Errorf("stats %+v, want no skipped wake-up", s)
				}
				return
			}
			for n := int64(1); n <= 3; n++ {
				c.notify <- struct{}{}
				waitFor(t, "a skipped wake-up", func() bool { return c.Stats().Skipped == n })
			}
			if s := c.Stats(); s.Rounds != 0 {
				t.Errorf("stats %+v, want no round while the trigger is false", s)
			}
		})
	}
}

// An unreachable improvement bar must reject the round: no publish, no
// model change, rejection counted.
func TestCalibratorRejectsInsufficientImprovement(t *testing.T) {
	cfg := harshXbar()
	base := weakSurrogate(t, cfg)
	c, err := New(Config{
		Model:          base,
		Swap:           func(*core.Model) (int64, error) { t.Fatal("rejected round published"); return 0, nil },
		MinSamples:     16,
		Steps:          50,
		MinImprovement: 0.999,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed(c, circuitSamples(t, cfg, 32, 33))
	r, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if r.Published {
		t.Fatal("round published despite an unreachable improvement bar")
	}
	if c.Current() != base {
		t.Fatal("rejected round replaced the current model")
	}
	if s := c.Stats(); s.Rejected != 1 || s.Published != 0 || s.Version != 0 {
		t.Fatalf("stats %+v, want 1 rejected, 0 published", s)
	}
}

// Two calibrators over the same sample log, seed, and schedule must
// produce bit-identical tuned weights: predictions of the published
// models agree exactly on unseen inputs.
func TestCalibratorReproducible(t *testing.T) {
	cfg := harshXbar()
	samples := circuitSamples(t, cfg, 40, 55)

	tuneOnce := func() *core.Model {
		base := weakSurrogate(t, cfg)
		var out *core.Model
		c, err := New(Config{
			Model:      base,
			Swap:       func(m *core.Model) (int64, error) { out = m; return 2, nil },
			MinSamples: 16,
			Steps:      150,
			Seed:       77,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		feed(c, samples)
		if _, err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
		if out == nil {
			t.Fatal("round did not publish; cannot compare weights")
		}
		return out
	}
	a, b := tuneOnce(), tuneOnce()

	rng := linalg.NewRNG(99)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for j := range g.Data {
		g.Data[j] = cfg.ConductanceFromLevel(rng.Float64())
	}
	v := make([]float64, cfg.Rows)
	for j := range v {
		v[j] = rng.Float64() * cfg.Vsupply
	}
	pa := make([]float64, cfg.Cols)
	pb := make([]float64, cfg.Cols)
	a.NonIdealCurrentsInto(pa, v, g)
	b.NonIdealCurrentsInto(pb, v, g)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("tuned models diverge at output %d: %v vs %v — tuning is not reproducible", i, pa[i], pb[i])
		}
	}
}

// End to end against a real engine: a published round hot-swaps the
// lowered matrices, advances the engine version, and the matrix keeps
// answering MVMs.
func TestCalibratorPublishesIntoEngine(t *testing.T) {
	xcfg := harshXbar()
	base := weakSurrogate(t, xcfg)
	simCfg, err := funcsim.NewConfig(xcfg, funcsim.WithSwappable())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := funcsim.NewEngine(simCfg, funcsim.GENIEx{Model: base})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w := linalg.NewDense(8, 8)
	rng := linalg.NewRNG(3)
	for i := range w.Data {
		w.Data[i] = 2*rng.Float64() - 1
	}
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(2, 8)
	for i := range x.Data {
		x.Data[i] = 2*rng.Float64() - 1
	}
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{
		Model:      base,
		Swap:       func(m *core.Model) (int64, error) { return eng.SwapModel(funcsim.GENIEx{Model: m}) },
		MinSamples: 16,
		Steps:      300,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed(c, circuitSamples(t, xcfg, 48, 21))
	r, err := c.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Published {
		t.Fatalf("round %+v did not publish", r)
	}
	if v := eng.ModelVersion(); v != 2 || r.Version != 2 {
		t.Fatalf("engine version %d, round version %d, want 2", v, r.Version)
	}
	if _, err := mat.MVM(x); err != nil {
		t.Fatalf("MVM after hot-swap: %v", err)
	}
}

// Config validation: a calibrator without a model or publish hook is a
// wiring bug, not a runtime condition.
func TestCalibratorConfigValidation(t *testing.T) {
	cfg := harshXbar()
	m, err := core.NewModel(cfg, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Swap: func(*core.Model) (int64, error) { return 0, nil }}); err == nil {
		t.Error("New accepted a nil Model")
	}
	if _, err := New(Config{Model: m}); err == nil {
		t.Error("New accepted a nil Swap hook")
	}
}
