package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"geniex/internal/nonideal"
)

// tinySpec is a fast grid: ideal and analytical tiers on one small
// array, a clean and a faulted stack, two seeds — 8 cells.
func tinySpec() Spec {
	return Spec{
		Name:  "test",
		Sizes: []int{8},
		Stacks: []StackSpec{
			{Name: "clean"},
			{Name: "faults", Stack: nonideal.Stack{
				&nonideal.StuckAt{POn: 0.05, POff: 0.05},
				&nonideal.D2DVariation{Sigma: 0.2},
			}},
		},
		Models: []string{ModelIdeal, ModelAnalytical},
		Seeds:  []uint64{1, 2},
		Jobs:   2,
	}
}

func TestSpecValidateAndCells(t *testing.T) {
	s := tinySpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID()] {
			t.Fatalf("duplicate cell ID %s", c.ID())
		}
		seen[c.ID()] = true
	}

	bad := []func(*Spec){
		func(s *Spec) { s.Sizes = nil },
		func(s *Spec) { s.Sizes = []int{1} },
		func(s *Spec) { s.Models = []string{"quantum"} },
		func(s *Spec) { s.Stacks[0].Name = "" },
		func(s *Spec) { s.Stacks[1].Name = "Clean" }, // collides after sanitizing
		func(s *Spec) { s.Time = -1 },
		func(s *Spec) {
			s.Stacks[1].Stack = nonideal.Stack{&nonideal.D2DVariation{Sigma: -1}}
		},
		// Repeated coordinates would run a cell twice into one checkpoint.
		func(s *Spec) { s.Seeds = []uint64{1, 1} },
		func(s *Spec) { s.Sizes = []int{8, 4, 8} },
		func(s *Spec) { s.Models = append(s.Models, ModelIdeal) },
	}
	for i, mutate := range bad {
		s := tinySpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// FuzzSpec decodes untrusted bytes into a Spec the way cmd/geniex-sweep
// reads a spec file. A spec that Validate accepts must survive the
// marshal → unmarshal → marshal round trip byte for byte, which is what
// the resume check (checkSpecFile) compares, and must enumerate cells
// with unique IDs, since each ID names a checkpoint file.
func FuzzSpec(f *testing.F) {
	repeated := tinySpec()
	repeated.Seeds = []uint64{1, 1}
	for _, s := range []Spec{tinySpec(), repeated} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		`{"name":"x","sizes":[8],"stacks":[{"name":"clean"}],"models":["ideal"],"seeds":[`,
		`{"sizes":"eight"}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	// maxCells caps the grids whose cells are enumerated, so a short
	// input cannot make the target allocate without bound.
	const maxCells = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		b1, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("marshaled spec %s does not decode: %v", b1, err)
		}
		b2, err := json.MarshalIndent(back, "", "  ")
		if err != nil || string(b2) != string(b1) {
			t.Fatalf("round trip changed the spec: %s -> %s (%v)", b1, b2, err)
		}
		n := len(s.Sizes) * len(s.Stacks)
		if n > maxCells || n*len(s.Models) > maxCells || n*len(s.Models)*len(s.Seeds) > maxCells {
			return
		}
		ids := map[string]bool{}
		for _, c := range s.Cells() {
			if ids[c.ID()] {
				t.Fatalf("%s: cell ID %s enumerated twice", b1, c.ID())
			}
			ids[c.ID()] = true
		}
	})
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := tinySpec()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	// Canonical comparison (re-marshal), the same equivalence the
	// resume-time spec check uses: an empty stack decodes as empty
	// rather than nil, which DeepEqual would over-reject.
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip changed spec:\n%s\n%s", b, b2)
	}
	if len(back.Stacks) != 2 || len(back.Stacks[1].Stack) != 2 {
		t.Fatalf("stacks lost in round trip: %+v", back.Stacks)
	}
}

func TestRunCompletesAndSummarizes(t *testing.T) {
	dir := t.TempDir()
	out, err := Run(context.Background(), tinySpec(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 8 || out.Skipped != 0 || len(out.Failures) != 0 {
		t.Fatalf("executed=%d skipped=%d failures=%d", out.Executed, out.Skipped, len(out.Failures))
	}
	if len(out.Results) != 8 {
		t.Fatalf("%d results", len(out.Results))
	}
	if got := len(out.Summary.Groups); got != 4 {
		t.Fatalf("%d summary groups, want 4", got)
	}
	for _, r := range out.Results {
		if r.Stack == "faults" && r.StuckCells == 0 {
			t.Errorf("%s: faulted cell reports no stuck cells", r.ID)
		}
		if r.Stack == "clean" && r.Model == ModelIdeal && r.RRMSE != 0 {
			t.Errorf("%s: clean ideal cell diverges from reference: %v", r.ID, r.RRMSE)
		}
		if r.Stack == "faults" && r.RRMSE == 0 {
			t.Errorf("%s: faulted cell reports zero divergence", r.ID)
		}
	}
	var sum Summary
	if err := readJSON(filepath.Join(dir, "summary.json"), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 8 {
		t.Fatalf("summary.json has %d cells", sum.Cells)
	}
}

// A resumed run executes exactly the missing cells — never a
// checkpointed one — and the combined results are identical to an
// uninterrupted run's.
func TestResumeSkipsCheckpointedCells(t *testing.T) {
	spec := tinySpec()
	cells := spec.Cells()

	// Uninterrupted reference run.
	refDir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: refDir}); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 3 cells have been dispatched.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	cellHook = func(Cell) {
		ran++
		if ran == 4 {
			cancel()
		}
	}
	defer func() { cellHook = nil }()
	_, err := Run(ctx, spec, Options{Dir: dir, Jobs: 1})
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	done, err := filepath.Glob(filepath.Join(dir, "cells", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) == 0 || len(done) == len(cells) {
		t.Fatalf("interrupted run checkpointed %d/%d cells", len(done), len(cells))
	}

	// Resume must run only the remainder, touching no existing file.
	cellHook = nil
	var executed []string
	cellHook = func(c Cell) { executed = append(executed, c.ID()) }
	out, err := Run(context.Background(), spec, Options{Dir: dir, Resume: true, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped != len(done) || out.Executed != len(cells)-len(done) {
		t.Fatalf("resume: skipped=%d executed=%d, checkpointed=%d of %d",
			out.Skipped, out.Executed, len(done), len(cells))
	}
	was := map[string]bool{}
	for _, p := range done {
		was[strings.TrimSuffix(filepath.Base(p), ".json")] = true
	}
	for _, id := range executed {
		if was[id] {
			t.Fatalf("resume re-ran checkpointed cell %s", id)
		}
	}

	// Byte-identical cell files vs the uninterrupted run.
	for _, c := range cells {
		a, err := os.ReadFile(filepath.Join(refDir, "cells", c.ID()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "cells", c.ID()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("cell %s differs between resumed and uninterrupted runs", c.ID())
		}
	}
}

// Without Resume, existing checkpoints are an error, not silently
// adopted or overwritten.
func TestFreshRunRefusesExistingCheckpoints(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	if _, err := Run(context.Background(), spec, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{Dir: dir}); err == nil {
		t.Fatal("fresh run adopted existing checkpoints")
	}
}

// Resuming under a different grid is rejected: the results would not
// be comparable.
func TestResumeRejectsSpecMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), tinySpec(), Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	other := tinySpec()
	other.Seeds = []uint64{1, 2, 3}
	if _, err := Run(context.Background(), other, Options{Dir: dir, Resume: true}); err == nil {
		t.Fatal("resume accepted a different spec")
	}
}

// A panicking cell is isolated: it is recorded as failed, writes no
// checkpoint, and the rest of the grid completes. A resumed run
// retries exactly the failed cell.
func TestPanicIsolationAndRetry(t *testing.T) {
	spec := tinySpec()
	cells := spec.Cells()
	victim := cells[3].ID()

	dir := t.TempDir()
	cellHook = func(c Cell) {
		if c.ID() == victim {
			panic("injected cell panic")
		}
	}
	defer func() { cellHook = nil }()
	out, err := Run(context.Background(), spec, Options{Dir: dir, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != len(cells)-1 || len(out.Failures) != 1 {
		t.Fatalf("executed=%d failures=%d", out.Executed, len(out.Failures))
	}
	if out.Failures[0].ID != victim || !strings.Contains(out.Failures[0].Err, "injected cell panic") {
		t.Fatalf("failure record %+v", out.Failures[0])
	}
	if _, err := os.Stat(filepath.Join(dir, "cells", victim+".json")); !os.IsNotExist(err) {
		t.Fatal("failed cell left a checkpoint")
	}

	cellHook = nil
	out, err = Run(context.Background(), spec, Options{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 1 || out.Skipped != len(cells)-1 || len(out.Failures) != 0 {
		t.Fatalf("retry: executed=%d skipped=%d failures=%d", out.Executed, out.Skipped, len(out.Failures))
	}
}

// Cell results are independent of the cell-level concurrency.
func TestResultsIndependentOfJobs(t *testing.T) {
	spec := tinySpec()
	ref, err := Run(context.Background(), spec, Options{Dir: t.TempDir(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), spec, Options{Dir: t.TempDir(), Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Results, par.Results) {
		t.Fatal("results differ between Jobs=1 and Jobs=4")
	}
}

// GENIEx cells share one surrogate per size, trained before any cell
// runs, so the fit fans out over the whole pool instead of running in
// one cell while the size's other cells wait. A resumed run trains only
// the sizes whose geniex cells are still pending.
func TestSurrogatesTrainBeforeCells(t *testing.T) {
	spec := Spec{
		Name:   "geniex",
		Sizes:  []int{4, 6},
		Stacks: []StackSpec{{Name: "clean"}},
		Models: []string{ModelIdeal, ModelGENIEx},
		Seeds:  []uint64{1, 2},
		GENIEx: GENIExSpec{Samples: 16, Epochs: 2, Hidden: 4},
	}
	run := func(dir string, jobs int, resume bool) (*Outcome, []string) {
		t.Helper()
		var mu sync.Mutex
		var trained []string
		done := false
		out, err := Run(context.Background(), spec, Options{Dir: dir, Jobs: jobs, Resume: resume,
			Logf: func(format string, args ...any) {
				line := fmt.Sprintf(format, args...)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case strings.HasPrefix(line, "sweep: done"):
					done = true
				case strings.HasPrefix(line, "sweep: trained"):
					if done {
						t.Errorf("%q logged after a cell finished", line)
					}
					trained = append(trained, line)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Failures) != 0 {
			t.Fatalf("failures: %v", out.Failures)
		}
		return out, trained
	}

	dir := t.TempDir()
	par, trained := run(dir, 0, false)
	want := []string{"sweep: trained the 4x4 GENIEx surrogate", "sweep: trained the 6x6 GENIEx surrogate"}
	if !reflect.DeepEqual(trained, want) {
		t.Fatalf("trained %q, want %q", trained, want)
	}
	if ref, _ := run(t.TempDir(), 1, false); !reflect.DeepEqual(ref.Results, par.Results) {
		t.Fatal("results differ between Jobs=1 and Jobs=0")
	}

	// Rerun a 4×4 geniex cell and a 6×6 ideal one: only 4×4 retrains.
	for _, c := range spec.Cells() {
		if (c.Size == 4 && c.Model == ModelGENIEx && c.Seed == 2) || (c.Size == 6 && c.Model == ModelIdeal && c.Seed == 1) {
			if err := os.Remove(filepath.Join(dir, "cells", c.ID()+".json")); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, trained := run(dir, 0, true)
	if res.Executed != 2 || !reflect.DeepEqual(trained, want[:1]) {
		t.Fatalf("resume executed %d cells and trained %q, want 2 and %q", res.Executed, trained, want[:1])
	}
	if !reflect.DeepEqual(res.Results, par.Results) {
		t.Fatal("resumed results differ from an uninterrupted run's")
	}

	// A surrogate that fails to train fails every geniex cell of its
	// size, and only those.
	spec.GENIEx.Samples = -1
	out, err := Run(context.Background(), spec, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 4 || len(out.Failures) != 4 {
		t.Fatalf("executed=%d failures=%v, want 4 ideal cells run and 4 geniex cells failed", out.Executed, out.Failures)
	}
	for _, f := range out.Failures {
		if !strings.Contains(f.ID, ModelGENIEx) || !strings.HasPrefix(f.Err, "surrogate dataset:") {
			t.Errorf("failure %+v, want a geniex cell failing on its surrogate dataset", f)
		}
	}
}

// The circuit tier runs through the same machinery (kept small; this
// is the full-physics path the scenario grid exists for).
func TestCircuitCellRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit cell in -short mode")
	}
	spec := Spec{
		Name:  "circuit",
		Sizes: []int{8},
		Stacks: []StackSpec{{Name: "stuck", Stack: nonideal.Stack{
			&nonideal.StuckAt{POn: 0.1},
		}}},
		Models: []string{ModelCircuit},
		Seeds:  []uint64{5},
	}
	out, err := Run(context.Background(), spec, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 1 || len(out.Failures) != 0 {
		t.Fatalf("executed=%d failures=%v", out.Executed, out.Failures)
	}
	r := out.Results[0]
	if r.RRMSE == 0 || r.StuckCells == 0 {
		t.Fatalf("circuit cell implausible: %+v", r)
	}
}
