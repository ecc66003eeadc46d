package funcsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"geniex/internal/core"
	"geniex/internal/xbar"
)

// ModelParams carries everything a registered model factory may need
// to build a Model for one design point. Factories use the subset
// they care about and ignore the rest.
type ModelParams struct {
	// Xbar is the crossbar design point (tile geometry, voltages,
	// conductance window, solver policy).
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

// ModelSpec describes one registered fidelity tier: its canonical
// name, where it sits in the fidelity ladder, what it needs, and how
// to build it. This registry is the single source of truth for tier
// names — `-mode` flags, serve ladders, and sweep validation all
// resolve through it, so a new tier registers in exactly one place.
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

var (
	modelMu sync.RWMutex
	models  = map[string]ModelSpec{}
)

// RegisterModel adds a fidelity tier to the registry. It panics on an
// empty name, a nil factory, or a duplicate registration — like
// nonideal.Register, registration happens in init functions where a
// collision is a programming error, not a runtime condition.
func RegisterModel(spec ModelSpec) {
	if spec.Name == "" {
		panic("funcsim: RegisterModel with empty name")
	}
	if spec.New == nil {
		panic(fmt.Sprintf("funcsim: RegisterModel(%q) with nil factory", spec.Name))
	}
	modelMu.Lock()
	defer modelMu.Unlock()
	if _, dup := models[spec.Name]; dup {
		panic(fmt.Sprintf("funcsim: RegisterModel(%q) called twice", spec.Name))
	}
	models[spec.Name] = spec
}

// ModelByName resolves a registered fidelity tier. Unknown names
// return an error listing every registered tier, so flag-parse errors
// are self-documenting.
func ModelByName(name string) (ModelSpec, error) {
	modelMu.RLock()
	spec, ok := models[name]
	modelMu.RUnlock()
	if !ok {
		return ModelSpec{}, fmt.Errorf("funcsim: unknown model %q (registered: %s)",
			name, strings.Join(ModelNames(), ", "))
	}
	return spec, nil
}

// ModelNames lists every registered tier in fidelity-ladder order:
// decreasing rank, ties broken by name. This is the order a serve
// degradation ladder lists tiers in.
func ModelNames() []string {
	modelMu.RLock()
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	modelMu.RUnlock()
	sort.Slice(names, func(i, j int) bool {
		modelMu.RLock()
		ri, rj := models[names[i]].Rank, models[names[j]].Rank
		modelMu.RUnlock()
		if ri != rj {
			return ri > rj
		}
		return names[i] < names[j]
	})
	return names
}

func needSurrogate(p ModelParams, name string) (*core.Model, error) {
	if p.Surrogate == nil {
		return nil, fmt.Errorf("funcsim: model %q needs a trained GENIEx surrogate (ModelParams.Surrogate)", name)
	}
	if p.Surrogate.Cfg.Rows != p.Xbar.Rows || p.Surrogate.Cfg.Cols != p.Xbar.Cols {
		return nil, fmt.Errorf("funcsim: model %q surrogate is %dx%d, design point is %dx%d",
			name, p.Surrogate.Cfg.Rows, p.Surrogate.Cfg.Cols, p.Xbar.Rows, p.Xbar.Cols)
	}
	return p.Surrogate, nil
}

// The built-in fidelity ladder, highest fidelity first: circuit (full
// non-linear solver), geniex-adaptive (neural surrogate with online
// calibration), geniex (frozen neural surrogate), analytical (linear
// parasitics), ideal (error-free).
func init() {
	RegisterModel(ModelSpec{
		Name: "circuit", Rank: 100, Circuit: true,
		New: func(p ModelParams) (Model, error) {
			return Circuit{Cfg: p.Xbar, Degraded: p.Degraded, Health: p.Health}, nil
		},
	})
	RegisterModel(ModelSpec{
		Name: "geniex-adaptive", Rank: 60, NeedsSurrogate: true, Adaptive: true,
		New: func(p ModelParams) (Model, error) {
			sur, err := needSurrogate(p, "geniex-adaptive")
			if err != nil {
				return nil, err
			}
			return GENIEx{Model: sur}, nil
		},
	})
	RegisterModel(ModelSpec{
		Name: "geniex", Rank: 50, NeedsSurrogate: true,
		New: func(p ModelParams) (Model, error) {
			sur, err := needSurrogate(p, "geniex")
			if err != nil {
				return nil, err
			}
			return GENIEx{Model: sur}, nil
		},
	})
	RegisterModel(ModelSpec{
		Name: "analytical", Rank: 20,
		New: func(p ModelParams) (Model, error) {
			return Analytical{Cfg: p.Xbar}, nil
		},
	})
	RegisterModel(ModelSpec{
		Name: "ideal", Rank: 10,
		New: func(p ModelParams) (Model, error) {
			return Ideal{}, nil
		},
	})
}
