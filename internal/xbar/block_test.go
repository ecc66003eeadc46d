package xbar

import (
	"fmt"
	"testing"

	"geniex/internal/linalg"
)

// blockDrives builds n drive vectors that take every path a block
// meets: all-zero drives; tens-of-µV drives, so nearly linear that the
// seed itself is accepted and the currents carry the block seed
// solve's bits unchanged (later chord updates would damp a rounding
// difference in it below one ulp); random drives that take chord
// updates; and one row at full scale, which chord hands over to the
// damped rung at 0.5 V with saturated selectors.
func blockDrives(cfg Config, r *linalg.RNG, n int) *linalg.Dense {
	vs := linalg.NewDense(n, cfg.Rows)
	for b := 0; b < n; b++ {
		row := vs.Row(b)
		scale := 0.0
		switch b % 5 {
		case 0:
			scale = cfg.Vsupply / 4
		case 2:
			scale = cfg.Vsupply / 16
		case 3:
			row[b%len(row)] = cfg.Vsupply
		case 4:
			scale = 2e-4 * cfg.Vsupply
		}
		for i := range row {
			if scale > 0 {
				row[i] = scale * r.Float64()
			}
		}
	}
	return vs
}

// BatchSolver's block path must give every item exactly what the
// one-item Crossbar.Solve gives it — currents, residual, update count,
// recovery rung and convergence, bit for bit — whatever the tile
// size, the batch size relative to the block, and the worker count.
func TestBlockChordMatchesOneItemSolve(t *testing.T) {
	for _, size := range []int{8, 16, 32} {
		for _, vsup := range []float64{0.25, 0.5} {
			t.Run(fmt.Sprintf("%dx%d/%gV", size, size, vsup), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Rows, cfg.Cols, cfg.Vsupply = size, size, vsup
				if vsup == 0.5 {
					cfg.SelectorVsat = 0.02 // saturated selectors: chord hands over
				}
				lanes := blockLanes(cfg)
				if lanes == 0 {
					// Too few lanes fit the cache budget (32×32): every
					// item takes the one-item path, which the grid pins.
					lanes = minLanes
				}
				r := linalg.NewRNG(uint64(70 + size))
				g := randomLevels(cfg, r)
				vs := blockDrives(cfg, r, 3*lanes+2)

				xb, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := xb.Program(g); err != nil {
					t.Fatal(err)
				}
				want := make([]*Solution, vs.Rows)
				var handed, chord, seed int
				for b := range want {
					if want[b], err = xb.Solve(vs.Row(b)); err != nil {
						t.Fatalf("%dx%d at %g V, item %d: %v", size, size, vsup, b, err)
					}
					switch {
					case want[b].Recovery != "":
						handed++
					case want[b].NewtonIters > 0:
						chord++
					case want[b].Currents[0] != 0:
						seed++
					}
				}
				if seed == 0 || chord == 0 || (vsup == 0.5 && handed == 0) {
					t.Fatalf("%dx%d at %g V: %d items accepted at the seed, %d after chord updates, %d handed over; the batch misses a path",
						size, size, vsup, seed, chord, handed)
				}

				for _, n := range []int{1, lanes - 1, lanes, lanes + 1, 3*lanes + 2} {
					if n < 1 {
						continue
					}
					batch := &linalg.Dense{Rows: n, Cols: size, Data: vs.Data[:n*size]}
					for _, workers := range []int{1, 2, 0} {
						name := fmt.Sprintf("%dx%d/%gV/batch=%d/workers=%d", size, size, vsup, n, workers)
						c := cfg
						c.BatchWorkers = workers
						s, err := NewBatchSolver(c, g)
						if err != nil {
							t.Fatal(err)
						}
						out, rep, err := solveReport(s, batch)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for b := 0; b < n; b++ {
							w, o := want[b], rep.Outcomes[b]
							if o.Residual != w.Residual || o.NewtonIters != w.NewtonIters || o.Recovery != w.Recovery {
								t.Fatalf("%s item %d: residual %v, %d updates, recovery %q; Solve gives %v, %d, %q",
									name, b, o.Residual, o.NewtonIters, o.Recovery, w.Residual, w.NewtonIters, w.Recovery)
							}
							for j, c := range out.Row(b) {
								if c != w.Currents[j] {
									t.Fatalf("%s item %d column %d: current %v, Solve gives %v", name, b, j, c, w.Currents[j])
								}
							}
						}
					}
				}
			})
		}
	}
}
