package nonideal

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"geniex/internal/linalg"
)

// Stack is an ordered list of components. Order is semantic: each
// component sees the conductances the previous ones produced, so
// [StuckAt, ReadNoise] jitters stuck cells off their rail while
// [ReadNoise, StuckAt] pins them exactly — scenarios choose.
type Stack []Component

// Validate checks every component.
func (s Stack) Validate() error {
	for i, c := range s {
		if c == nil {
			return fmt.Errorf("nonideal: stack component %d is nil", i)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("nonideal: stack component %d (%s): %w", i, c.Kind(), err)
		}
	}
	return nil
}

// Label is the human-readable "+"-joined composition name, mirroring
// the joksas labeling convention ("stuck_at+read_noise"); "clean" for
// an empty stack.
func (s Stack) Label() string {
	if len(s) == 0 {
		return "clean"
	}
	out := ""
	for i, c := range s {
		if i > 0 {
			out += "+"
		}
		out += c.Kind()
	}
	return out
}

// Report aggregates what an application (or a whole lowering) did.
type Report struct {
	// Cells counts conductances the stack was applied to.
	Cells int `json:"cells"`
	// Touched counts cell modifications summed over components; a cell
	// perturbed by two components counts twice.
	Touched int `json:"touched"`
	// Stuck counts cells forced to a rail by stuck-at faults — the
	// hard-fault population behind DegradedFraction.
	Stuck int `json:"stuck"`
	// Tiles and DegradedTiles count applications and applications that
	// injected at least one stuck cell. One application = one physical
	// crossbar's conductance matrix.
	Tiles         int `json:"tiles"`
	DegradedTiles int `json:"degraded_tiles"`
	// PerKind counts touched cells per component kind.
	PerKind map[string]int `json:"per_kind,omitempty"`
}

// Merge folds other into r.
func (r *Report) Merge(other Report) {
	r.Cells += other.Cells
	r.Touched += other.Touched
	r.Stuck += other.Stuck
	r.Tiles += other.Tiles
	r.DegradedTiles += other.DegradedTiles
	for k, v := range other.PerKind {
		if r.PerKind == nil {
			r.PerKind = map[string]int{}
		}
		r.PerKind[k] += v
	}
}

// DegradedFraction is the fraction of applications (physical
// crossbars) that carry at least one stuck cell; 0 when nothing was
// applied.
func (r Report) DegradedFraction() float64 {
	if r.Tiles == 0 {
		return 0
	}
	return float64(r.DegradedTiles) / float64(r.Tiles)
}

// String summarizes the report.
func (r Report) String() string {
	keys := make([]string, 0, len(r.PerKind))
	for k := range r.PerKind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	per := ""
	for _, k := range keys {
		per += fmt.Sprintf(" %s=%d", k, r.PerKind[k])
	}
	return fmt.Sprintf("nonideal: %d/%d tiles degraded, %d stuck cells, %d/%d cells touched%s",
		r.DegradedTiles, r.Tiles, r.Stuck, r.Touched, r.Cells, per)
}

// Apply runs the stack in order on g, in place. Each component draws
// from a private stream derived from (seed, component index, kind) —
// and, for cycle-varying components, the clock reading t — so a
// component's draws depend only on its slot, never on how many values
// earlier components consumed, and replaying the same (stack, seed, t)
// is bit-identical.
func (s Stack) Apply(g *linalg.Dense, env Env, seed uint64, t float64) (Report, error) {
	rep := Report{Cells: g.Rows * g.Cols, Tiles: 1}
	if len(s) == 0 {
		return rep, nil
	}
	if err := env.Validate(); err != nil {
		return rep, err
	}
	for i, c := range s {
		h := DeriveSeed(seed, uint64(i), kindHash(c.Kind()))
		if _, ok := c.(cycleVarying); ok {
			h = mix(h, math.Float64bits(t))
		}
		rng := linalg.NewRNG(h)
		touched, err := c.Apply(g, env, rng, t)
		if err != nil {
			return rep, fmt.Errorf("nonideal: component %d (%s): %w", i, c.Kind(), err)
		}
		// Clamping cannot repair NaN (both window comparisons are
		// false), and parameters Validate accepts can still overflow:
		// a drift with ν·d0 underflowing to 0 and ln(1+t/τ0) = +Inf
		// ages every cell to NaN. Fail here, naming the component,
		// rather than hand the tiers a matrix they would silently
		// propagate.
		for k, v := range g.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return rep, fmt.Errorf("nonideal: component %d (%s) left conductance %d at %g", i, c.Kind(), k, v)
			}
		}
		rep.Touched += touched
		if rep.PerKind == nil {
			rep.PerKind = map[string]int{}
		}
		rep.PerKind[c.Kind()] += touched
		if c.Kind() == KindStuckAt {
			rep.Stuck += touched
		}
	}
	if rep.Stuck > 0 {
		rep.DegradedTiles = 1
	}
	return rep, nil
}

// Scenario binds a stack to its seed and clock: everything needed to
// perturb a lowering reproducibly. The zero value (empty stack) is the
// clean scenario.
type Scenario struct {
	// Stack is the ordered component composition.
	Stack Stack `json:"stack"`
	// Seed drives every component stream. Sub-seeds are derived per
	// (tile, slice, sign, component), so distinct tiles get independent
	// faults from one scenario seed.
	Seed uint64 `json:"seed"`
	// Time is the fixed clock reading (seconds since programming) used
	// when Clock is nil — the common case for sweeps, which pin aging
	// per grid cell.
	Time float64 `json:"time,omitempty"`
	// Clock, when non-nil, overrides Time with a live reading at each
	// application; it is injectable and never serialized.
	Clock Clock `json:"-"`
}

// Validate checks the scenario's stack.
func (sc *Scenario) Validate() error {
	if sc == nil {
		return nil
	}
	if sc.Time < 0 {
		return fmt.Errorf("nonideal: negative scenario time %g", sc.Time)
	}
	return sc.Stack.Validate()
}

// Now returns the scenario clock reading.
func (sc *Scenario) Now() float64 {
	if sc.Clock != nil {
		return sc.Clock()
	}
	return sc.Time
}

// Enabled reports whether the scenario perturbs anything.
func (sc *Scenario) Enabled() bool { return sc != nil && len(sc.Stack) > 0 }

// ApplyTile perturbs one physical crossbar's conductance matrix in
// place, deriving the tile's sub-seed from its coordinates: tile row,
// tile column, weight-slice index, and sign (0 positive, 1 negative).
// The derivation is position-based — independent of lowering order and
// of worker count.
func (sc *Scenario) ApplyTile(g *linalg.Dense, env Env, tr, tc, slice, sign int) (Report, error) {
	if !sc.Enabled() {
		return Report{Cells: g.Rows * g.Cols, Tiles: 1}, nil
	}
	seed := DeriveSeed(sc.Seed, uint64(tr), uint64(tc), uint64(slice), uint64(sign))
	return sc.Stack.Apply(g, env, seed, sc.Now())
}

// --- JSON envelope ----------------------------------------------------

// componentJSON is the wire shape of one stack entry.
type componentJSON struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// kinds maps every component kind to a factory for a zero-parameter
// instance that UnmarshalJSON fills.
var kinds = map[string]func() Component{
	KindStuckAt:        func() Component { return &StuckAt{} },
	KindD2DVariation:   func() Component { return &D2DVariation{} },
	KindC2CVariation:   func() Component { return &C2CVariation{} },
	KindDrift:          func() Component { return &Drift{} },
	KindLineResistance: func() Component { return &LineResistance{} },
	KindReadNoise:      func() Component { return &ReadNoise{} },
}

// MarshalJSON encodes the stack as a list of {kind, params} envelopes.
func (s Stack) MarshalJSON() ([]byte, error) {
	out := make([]componentJSON, len(s))
	for i, c := range s {
		if c == nil {
			return nil, fmt.Errorf("nonideal: marshal of nil component %d", i)
		}
		params, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		out[i] = componentJSON{Kind: c.Kind(), Params: params}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a list of {kind, params} envelopes through the
// kinds table. Unknown kinds are an error, not a silent skip: a scenario
// that drops a fault is a different scenario.
func (s *Stack) UnmarshalJSON(b []byte) error {
	var raw []componentJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	out := make(Stack, len(raw))
	for i, e := range raw {
		factory, ok := kinds[e.Kind]
		if !ok {
			return fmt.Errorf("nonideal: unknown component kind %q", e.Kind)
		}
		c := factory()
		if len(e.Params) > 0 {
			if err := json.Unmarshal(e.Params, c); err != nil {
				return fmt.Errorf("nonideal: component %d (%s): %w", i, e.Kind, err)
			}
		}
		out[i] = c
	}
	*s = out
	return nil
}
