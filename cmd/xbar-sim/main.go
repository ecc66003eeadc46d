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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xbar-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		size    = flag.Int("size", 32, "crossbar rows = cols")
		ron     = flag.Float64("ron", 100e3, "ON resistance (ohms)")
		onoff   = flag.Float64("onoff", 6, "conductance ON/OFF ratio")
		rsource = flag.Float64("rsource", 500, "source resistance (ohms)")
		rsink   = flag.Float64("rsink", 100, "sink resistance (ohms)")
		rwire   = flag.Float64("rwire", 2.5, "wire resistance per cell (ohms)")
		vdd     = flag.Float64("vdd", 0.25, "supply voltage (volts)")
		samples = flag.Int("samples", 50, "random (V,G) workloads to solve")
		seed    = flag.Uint64("seed", 1, "random seed")
		linear  = flag.Bool("linear", false, "use linear devices (analytical-style netlist)")
		spice   = flag.String("spice", "", "export one SPICE netlist of the first workload to this file")
		policy  = flag.String("solver-policy", "recover", "non-convergence handling: recover, failfast or besteffort")
	)
	flag.Parse()

	pol, err := xbar.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	opts := []xbar.Option{
		xbar.WithRon(*ron), xbar.WithOnOffRatio(*onoff),
		xbar.WithParasitics(*rsource, *rsink, *rwire),
		xbar.WithVsupply(*vdd), xbar.WithPolicy(pol),
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
	var newtonTotal, cgTotal int
	var converged, recovered, luFallbacks, unconverged int
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
		cgTotal += sol.CGIters
		luFallbacks += sol.LUFallbacks
		if sol.Converged {
			converged++
		} else {
			unconverged++
		}
		if sol.Recovery != "" && sol.Recovery != "best-effort" {
			recovered++
		}
		if sol.Residual > worstResid {
			worstResid = sol.Residual
		}
	}
	fmt.Printf("solved %d workloads (%.1f solver updates, %.0f inner CG iterations per solve)\n",
		*samples, float64(newtonTotal)/float64(*samples), float64(cgTotal)/float64(*samples))
	fmt.Printf("solver health: %d/%d converged, %d recovered, %d unconverged, %d LU fallbacks, worst KCL residual %.3g\n",
		converged, *samples, recovered, unconverged, luFallbacks, worstResid)
	fmt.Println("non-ideality factor NF =", linalg.Summarize(nfAll).String())
	return nil
}
