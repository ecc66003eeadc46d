// Command geniex-sweep runs a declarative non-ideality scenario grid:
// the cross product of array sizes, named nonideal stacks, fidelity
// tiers, and seeds, with every completed cell checkpointed atomically
// so a crashed or interrupted sweep resumes where it stopped.
//
// The grid comes from a JSON spec file (-spec); -print-spec emits a
// commented starting point. Each cell measures the divergence of its
// tier's MVM output from the clean ideal lowering of the same
// workload. Results land one JSON file per cell under -out/cells/,
// plus -out/summary.json aggregating over seeds.
//
// A sweep interrupted by SIGINT (or killed outright) restarts with
// -resume: cells whose checkpoint files exist are skipped, the rest
// run, and because every cell is deterministic the final result set is
// bit-identical to an uninterrupted run's.
//
// Example:
//
//	geniex-sweep -print-spec > sweep.json
//	geniex-sweep -spec sweep.json -out results/
//	...crash or ^C...
//	geniex-sweep -spec sweep.json -out results/ -resume
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"geniex/internal/nonideal"
	"geniex/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geniex-sweep:", err)
		os.Exit(1)
	}
}

// defaultSpec is the -print-spec starting grid: every builtin
// component appears in some stack, across two array sizes and the
// cheap tiers plus the circuit truth.
func defaultSpec() sweep.Spec {
	return sweep.Spec{
		Name:  "nonideal-grid",
		Sizes: []int{8, 16},
		Stacks: []sweep.StackSpec{
			{Name: "clean"},
			{Name: "stuck", Stack: nonideal.Stack{
				&nonideal.StuckAt{POn: 0.02, POff: 0.05},
			}},
			{Name: "variation", Stack: nonideal.Stack{
				&nonideal.D2DVariation{Sigma: 0.2},
				&nonideal.C2CVariation{Sigma: 0.05},
			}},
			{Name: "aged", Stack: nonideal.Stack{
				&nonideal.StuckAt{POn: 0.01, POff: 0.02, Cluster: 2},
				&nonideal.D2DVariation{Sigma: 0.15},
				&nonideal.Drift{Nu: 0.03, Tau0: 10},
				&nonideal.ReadNoise{Sigma: 0.01},
			}},
		},
		Models: []string{sweep.ModelIdeal, sweep.ModelAnalytical, sweep.ModelCircuit},
		Seeds:  []uint64{1, 2, 3},
		Time:   1e5,
	}
}

func run() error {
	var (
		specPath  = flag.String("spec", "", "sweep spec JSON file (empty: the -print-spec default grid)")
		outDir    = flag.String("out", "sweep-out", "checkpoint/result directory")
		resume    = flag.Bool("resume", false, "skip cells already checkpointed in -out")
		jobs      = flag.Int("jobs", 0, "concurrent cells (0 = spec's Jobs, else GOMAXPROCS)")
		printSpec = flag.Bool("print-spec", false, "write the default spec JSON to stdout and exit")
		cellDelay = flag.Duration("cell-delay", 0, "testing: artificial pause before each executed cell")
	)
	flag.Parse()

	spec := defaultSpec()
	if *printSpec {
		b, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec = sweep.Spec{}
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	}
	// SIGINT stops dispatching new cells and leaves the checkpoints on
	// disk; a second SIGINT kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	out, err := sweep.Run(ctx, spec, sweep.Options{
		Dir: *outDir, Resume: *resume, Jobs: *jobs, CellDelay: *cellDelay,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if out != nil {
		fmt.Printf("sweep: executed=%d skipped=%d failed=%d in %v\n",
			out.Executed, out.Skipped, len(out.Failures), time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return err
	}
	fmt.Printf("\n%-36s %6s %12s %12s %10s\n", "group", "seeds", "mean_rrmse", "max_rrmse", "degraded")
	for _, g := range out.Summary.Groups {
		fmt.Printf("%-36s %6d %12.4g %12.4g %10.3f\n",
			g.Key, g.Seeds, g.MeanRRMSE, g.MaxRRMSE, g.MeanDegraded)
	}
	if len(out.Failures) > 0 {
		fmt.Printf("\n%d failed cells (no checkpoint written; -resume retries them):\n", len(out.Failures))
		for _, f := range out.Failures {
			fmt.Printf("  %s: %s\n", f.ID, f.Err)
		}
		return fmt.Errorf("%d cells failed", len(out.Failures))
	}
	return nil
}
