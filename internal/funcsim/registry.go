package funcsim

import (
	"fmt"
	"strings"

	"geniex/internal/core"
	"geniex/internal/xbar"
)

// ModelParams carries everything a tier's model factory may need
// to build a Model for one design point. Factories use the subset
// they care about and ignore the rest.
type ModelParams struct {
	// Xbar is the crossbar design point (tile geometry, voltages,
	// conductance window, solver start).
	Xbar xbar.Config
	// Degraded selects failed-batch-item handling for circuit-solver
	// models (see Circuit.Degraded).
	Degraded bool
	// Health, when non-nil, collects circuit-solver outcomes (see
	// Circuit.Health). Ignored by non-circuit models.
	Health *SolverHealth
	// Surrogate is the trained GENIEx model for surrogate-backed
	// fidelity tiers. Factories with ModelSpec.NeedsSurrogate reject a
	// nil Surrogate.
	Surrogate *core.Model
}

// ModelSpec describes one fidelity tier: its canonical name, where it
// sits in the fidelity ladder, what it needs, and how to build it. The
// tiers table is the single source of truth for tier names — `-mode`
// flags, serve ladders, and sweep validation all resolve through it,
// so a new tier is added in exactly one place.
type ModelSpec struct {
	// Name is the canonical tier name ("ideal", "geniex", ...).
	Name string
	// Rank orders the fidelity ladder: higher rank means higher
	// fidelity (and cost). Serve ladders list tiers in decreasing
	// rank; ModelNames returns them in that order.
	Rank int
	// Circuit marks models that run the full non-linear circuit
	// solver per tile. The serve frontend excludes them from probe
	// attachment (the probe would shadow-solve a solver against
	// itself) and chaos fault injection targets them.
	Circuit bool
	// NeedsSurrogate marks models built around a trained core.Model;
	// their factories require ModelParams.Surrogate.
	NeedsSurrogate bool
	// Adaptive marks models whose surrogate is meant to be fine-tuned
	// and hot-swapped online; serving stacks give such tiers a
	// Swappable engine and may attach a background calibrator.
	Adaptive bool
	// New builds the model for a design point.
	New func(ModelParams) (Model, error)
}

// tiers is the fidelity ladder, highest fidelity first (decreasing
// Rank): circuit (full non-linear solver), geniex-adaptive (neural
// surrogate with online calibration), geniex (frozen neural
// surrogate), analytical (linear parasitics), ideal (error-free).
var tiers = []ModelSpec{
	{
		Name: "circuit", Rank: 100, Circuit: true,
		New: func(p ModelParams) (Model, error) {
			return Circuit{Cfg: p.Xbar, Degraded: p.Degraded, Health: p.Health}, nil
		},
	},
	{
		Name: "geniex-adaptive", Rank: 60, NeedsSurrogate: true, Adaptive: true,
		New: func(p ModelParams) (Model, error) { return surrogateTier(p, "geniex-adaptive") },
	},
	{
		Name: "geniex", Rank: 50, NeedsSurrogate: true,
		New: func(p ModelParams) (Model, error) { return surrogateTier(p, "geniex") },
	},
	{
		Name: "analytical", Rank: 20,
		New: func(p ModelParams) (Model, error) { return Analytical{Cfg: p.Xbar}, nil },
	},
	{
		Name: "ideal", Rank: 10,
		New: func(ModelParams) (Model, error) { return Ideal{}, nil },
	},
}

// ModelByName resolves a fidelity tier. Unknown names return an error
// listing every tier, so flag-parse errors are self-documenting.
func ModelByName(name string) (ModelSpec, error) {
	for _, spec := range tiers {
		if spec.Name == name {
			return spec, nil
		}
	}
	return ModelSpec{}, fmt.Errorf("funcsim: unknown model %q (registered: %s)",
		name, strings.Join(ModelNames(), ", "))
}

// ModelNames lists every tier in fidelity-ladder order: decreasing
// rank. This is the order a serve degradation ladder lists tiers in.
func ModelNames() []string {
	names := make([]string, len(tiers))
	for i, spec := range tiers {
		names[i] = spec.Name
	}
	return names
}

// surrogateTier builds a GENIEx model around p.Surrogate, which must
// be present and match the design point's tile size.
func surrogateTier(p ModelParams, name string) (Model, error) {
	if p.Surrogate == nil {
		return nil, fmt.Errorf("funcsim: model %q needs a trained GENIEx surrogate (ModelParams.Surrogate)", name)
	}
	if p.Surrogate.Cfg.Rows != p.Xbar.Rows || p.Surrogate.Cfg.Cols != p.Xbar.Cols {
		return nil, fmt.Errorf("funcsim: model %q surrogate is %dx%d, design point is %dx%d",
			name, p.Surrogate.Cfg.Rows, p.Surrogate.Cfg.Cols, p.Xbar.Rows, p.Xbar.Cols)
	}
	return GENIEx{Model: p.Surrogate}, nil
}
