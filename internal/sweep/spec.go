// Package sweep is the declarative scenario-grid engine: it fans a
// grid of (array size × non-ideality stack × analog model × seed)
// cells across workers, checkpoints every completed cell atomically,
// and resumes after a crash by skipping the cells already on disk.
//
// Each cell is one fully deterministic measurement: lower a fixed
// weight matrix under the cell's nonideal.Scenario, run a fixed input
// batch through the chosen fidelity tier, and record the divergence
// from the clean ideal lowering. Determinism is load-bearing twice
// over — it makes a resumed sweep bit-identical to an uninterrupted
// one, and it lets cells run at any concurrency. Cell results contain
// no timestamps or durations for the same reason: result files from a
// killed-and-resumed sweep must byte-compare equal to a clean run's.
package sweep

import (
	"fmt"
	"regexp"
	"strings"

	"geniex/internal/funcsim"
	"geniex/internal/nonideal"
)

// Convenience aliases for the fidelity-tier names (funcsim's tier
// table is the source of truth; a cell may select any tier, these are
// just the ones specs commonly list).
const (
	ModelIdeal      = "ideal"
	ModelAnalytical = "analytical"
	ModelGENIEx     = "geniex"
	ModelCircuit    = "circuit"
)

// StackSpec is a named non-ideality composition; the name keys cell
// IDs and summary rows.
type StackSpec struct {
	Name  string         `json:"name"`
	Stack nonideal.Stack `json:"stack"`
}

// GENIExSpec bounds the surrogate training a sweep performs when its
// model list includes "geniex". One surrogate is trained per array
// size (the surrogate models the design point, not the faults), before
// any cell runs, from a seed derived from the size alone, so
// retraining after a resume reproduces the same model.
type GENIExSpec struct {
	Samples int `json:"samples,omitempty"` // circuit-labelled samples (default 256)
	Epochs  int `json:"epochs,omitempty"`  // Adam epochs (default 30)
	Hidden  int `json:"hidden,omitempty"`  // hidden width (default 24)
}

func (g GENIExSpec) withDefaults() GENIExSpec {
	if g.Samples == 0 {
		g.Samples = 256
	}
	if g.Epochs == 0 {
		g.Epochs = 30
	}
	if g.Hidden == 0 {
		g.Hidden = 24
	}
	return g
}

// Spec declares a sweep grid. The cell list is the cross product
// Sizes × Stacks × Models × Seeds, enumerated in that nesting order.
type Spec struct {
	// Name labels the sweep in logs and the summary.
	Name string `json:"name"`
	// Sizes are the square array sizes (rows = cols) to sweep.
	Sizes []int `json:"sizes"`
	// Stacks are the named non-ideality compositions; use an empty
	// stack for the clean baseline.
	Stacks []StackSpec `json:"stacks"`
	// Models are the fidelity tiers to evaluate (Model* constants).
	Models []string `json:"models"`
	// Seeds drive the scenario draws; weights and inputs depend only on
	// the array size, so seeds isolate the fault realization.
	Seeds []uint64 `json:"seeds"`
	// Time is the scenario clock reading (seconds since programming)
	// shared by every cell; drift-bearing stacks age by it.
	Time float64 `json:"time,omitempty"`
	// Batch is the number of evaluation input rows (default 4).
	Batch int `json:"batch,omitempty"`
	// Jobs bounds how many cells run concurrently: 0 (the default)
	// means GOMAXPROCS, and no more than GOMAXPROCS run at once. Cells
	// and each cell's MVM tiles share the process's one fan-out pool,
	// so the tiles use only the workers no cell holds.
	Jobs int `json:"jobs,omitempty"`
	// GENIEx bounds the per-size surrogate training for "geniex" cells.
	GENIEx GENIExSpec `json:"geniex,omitempty"`
}

// Validate reports whether the spec describes a runnable grid.
func (s *Spec) Validate() error {
	if len(s.Sizes) == 0 || len(s.Stacks) == 0 || len(s.Models) == 0 || len(s.Seeds) == 0 {
		return fmt.Errorf("sweep: grid needs at least one size, stack, model and seed")
	}
	for _, n := range s.Sizes {
		if n < 2 || n > 256 {
			return fmt.Errorf("sweep: array size %d out of range [2, 256]", n)
		}
	}
	seen := map[string]bool{}
	for i, st := range s.Stacks {
		if st.Name == "" {
			return fmt.Errorf("sweep: stack %d has no name", i)
		}
		id := sanitize(st.Name)
		if seen[id] {
			return fmt.Errorf("sweep: stack name %q collides with an earlier stack (after sanitizing)", st.Name)
		}
		seen[id] = true
		if err := st.Stack.Validate(); err != nil {
			return fmt.Errorf("sweep: stack %q: %w", st.Name, err)
		}
	}
	for _, m := range s.Models {
		if _, err := funcsim.ModelByName(m); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	// A repeated coordinate would run its cells twice into one
	// checkpoint and count them twice in the summary.
	if err := unique("size", s.Sizes); err != nil {
		return err
	}
	if err := unique("model", s.Models); err != nil {
		return err
	}
	if err := unique("seed", s.Seeds); err != nil {
		return err
	}
	if s.Time < 0 {
		return fmt.Errorf("sweep: negative scenario time %g", s.Time)
	}
	if s.Batch < 0 || s.Jobs < 0 {
		return fmt.Errorf("sweep: negative batch or jobs")
	}
	return nil
}

// unique reports the first value of xs that repeats an earlier one.
func unique[T comparable](what string, xs []T) error {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return fmt.Errorf("sweep: %s %v listed twice", what, x)
		}
		seen[x] = true
	}
	return nil
}

// Cell is one grid point.
type Cell struct {
	Index int
	Size  int
	Stack StackSpec
	Model string
	Seed  uint64
}

// ID is the cell's stable identifier — the checkpoint file name stem.
// It is a pure function of the cell coordinates, never of enumeration
// order or timing.
func (c Cell) ID() string {
	return fmt.Sprintf("size%03d_%s_%s_seed%d", c.Size, sanitize(c.Stack.Name), c.Model, c.Seed)
}

// Cells enumerates the grid in deterministic order: sizes outermost,
// then stacks, models, seeds.
func (s *Spec) Cells() []Cell {
	var cells []Cell
	for _, size := range s.Sizes {
		for _, st := range s.Stacks {
			for _, m := range s.Models {
				for _, seed := range s.Seeds {
					cells = append(cells, Cell{
						Index: len(cells),
						Size:  size, Stack: st, Model: m, Seed: seed,
					})
				}
			}
		}
	}
	return cells
}

var sanitizeRe = regexp.MustCompile(`[^a-z0-9_+-]+`)

// sanitize maps a stack name onto the file-name-safe alphabet.
func sanitize(name string) string {
	out := sanitizeRe.ReplaceAllString(strings.ToLower(name), "-")
	if out == "" {
		out = "x"
	}
	return out
}

// Result is one completed cell's measurement. Every field is a pure
// function of the cell coordinates and the spec — nothing here may
// depend on wall-clock time, host, or concurrency, or kill-and-resume
// result files would stop byte-comparing equal to a clean run's.
type Result struct {
	ID    string `json:"id"`
	Size  int    `json:"size"`
	Stack string `json:"stack"`
	Model string `json:"model"`
	Seed  uint64 `json:"seed"`

	// RRMSE is the relative RMSE of the cell's MVM output against the
	// clean ideal lowering of the same weights and inputs.
	RRMSE float64 `json:"rrmse"`
	// MaxAbsErr is the worst absolute output deviation.
	MaxAbsErr float64 `json:"max_abs_err"`
	// DegradedFraction is the fraction of the cell's physical crossbars
	// carrying at least one stuck cell.
	DegradedFraction float64 `json:"degraded_fraction"`
	// StuckCells and TouchedCells summarize the scenario report.
	StuckCells   int `json:"stuck_cells"`
	TouchedCells int `json:"touched_cells"`
	// Crossbars is how many physical crossbars the lowering occupied.
	Crossbars int `json:"crossbars"`
}

// GroupKey identifies the (size, stack, model) summary group a result
// aggregates into across seeds.
func (r Result) GroupKey() string {
	return fmt.Sprintf("size%03d_%s_%s", r.Size, sanitize(r.Stack), r.Model)
}

// GroupStats aggregates one (size, stack, model) group over its seeds.
type GroupStats struct {
	Key   string `json:"key"`
	Size  int    `json:"size"`
	Stack string `json:"stack"`
	Model string `json:"model"`
	Seeds int    `json:"seeds"`

	MeanRRMSE        float64 `json:"mean_rrmse"`
	MinRRMSE         float64 `json:"min_rrmse"`
	MaxRRMSE         float64 `json:"max_rrmse"`
	MeanDegraded     float64 `json:"mean_degraded_fraction"`
	MeanStuckCells   float64 `json:"mean_stuck_cells"`
	MeanTouchedCells float64 `json:"mean_touched_cells"`
}

// Summary is the sweep-level aggregate written to summary.json.
type Summary struct {
	Name   string       `json:"name"`
	Cells  int          `json:"cells"`
	Failed int          `json:"failed"`
	Groups []GroupStats `json:"groups"`
}
