// Command xbar-sim runs circuit-level crossbar simulations (the
// repository's HSPICE substitute) and reports non-ideality statistics
// for a design point, optionally comparing the full non-linear solve
// with the linear analytical model.
//
// Example:
//
//	xbar-sim -size 32 -ron 100e3 -onoff 6 -vdd 0.25 -samples 50
package main

import (
	"flag"
	"fmt"
	"os"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xbar-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("xbar-sim", flag.ExitOnError)
	var (
		size    = fs.Int("size", 32, "crossbar rows = cols")
		ron     = fs.Float64("ron", 100e3, "ON resistance (ohms)")
		onoff   = fs.Float64("onoff", 6, "conductance ON/OFF ratio")
		rsource = fs.Float64("rsource", 500, "source resistance (ohms)")
		rsink   = fs.Float64("rsink", 100, "sink resistance (ohms)")
		rwire   = fs.Float64("rwire", 2.5, "wire resistance per cell (ohms)")
		vdd     = fs.Float64("vdd", 0.25, "supply voltage (volts)")
		samples = fs.Int("samples", 50, "random (V,G) workloads to solve, at least 1")
		seed    = fs.Uint64("seed", 1, "random seed")
		linear  = fs.Bool("linear", false, "use linear devices (analytical-style netlist)")
		spice   = fs.String("spice", "", "export one SPICE netlist of the first workload to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samples < 1 {
		return fmt.Errorf("-samples %d: need at least 1 workload to solve", *samples)
	}

	opts := []xbar.Option{
		xbar.WithRon(*ron), xbar.WithOnOffRatio(*onoff),
		xbar.WithParasitics(*rsource, *rsink, *rwire),
		xbar.WithVsupply(*vdd),
	}
	if *linear {
		opts = append(opts, xbar.WithLinearDevices())
	}
	cfg, err := xbar.NewConfig(*size, *size, opts...)
	if err != nil {
		return err
	}
	fmt.Println("design point:", cfg.String())

	rng := linalg.NewRNG(*seed)
	var nfAll []float64
	var newtonTotal, recovered int
	worstResid := 0.0
	xb, err := xbar.New(cfg)
	if err != nil {
		return err
	}
	for s := 0; s < *samples; s++ {
		g := linalg.NewDense(cfg.Rows, cfg.Cols)
		for i := range g.Data {
			g.Data[i] = cfg.ConductanceFromLevel(rng.Float64())
		}
		v := make([]float64, cfg.Rows)
		for i := range v {
			v[i] = cfg.Vsupply * rng.Float64()
		}
		if s == 0 && *spice != "" {
			f, err := os.Create(*spice)
			if err != nil {
				return err
			}
			if err := xbar.WriteSPICE(f, cfg, g, v); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Println("SPICE netlist written to", *spice)
		}
		if err := xb.Program(g); err != nil {
			return err
		}
		sol, err := xb.Solve(v)
		if err != nil {
			return err
		}
		nfAll = append(nfAll, xbar.NF(xbar.IdealCurrents(v, g), sol.Currents, cfg)...)
		newtonTotal += sol.NewtonIters
		if sol.Recovery != "" {
			recovered++
		}
		worstResid = max(worstResid, sol.Residual)
	}
	// The same line as the solver-health note of the Fig. 2 tables.
	fmt.Printf("solver health: %d solves, %d recovered, %.1f solver updates/solve, worst KCL residual %.2g\n",
		*samples, recovered, float64(newtonTotal)/float64(*samples), worstResid)
	fmt.Println("non-ideality factor NF =", linalg.Summarize(nfAll).String())
	return nil
}
