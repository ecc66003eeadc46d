package xbar

import (
	"fmt"
	"io"

	"geniex/internal/linalg"
)

// WriteSPICE emits an HSPICE-compatible netlist of the crossbar: the
// same topology the Go solver assembles (word/bit lines with Rsource,
// Rsink and per-segment Rwire; a saturating selector and a sinh RRAM
// behavioural source at every junction), with the word lines driven by
// the given voltages. It exists so the repository's MNA solver can be
// cross-checked against a real SPICE engine: run the deck, compare the
// printed sink currents with Crossbar.Solve.
//
// The deck uses behavioural current sources (G elements with CUR=
// expressions), which HSPICE, ngspice and Xyce all accept.
func WriteSPICE(w io.Writer, cfg Config, g *linalg.Dense, v []float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if g.Rows != cfg.Rows || g.Cols != cfg.Cols {
		return fmt.Errorf("xbar: WriteSPICE with %dx%d matrix for %dx%d crossbar",
			g.Rows, g.Cols, cfg.Rows, cfg.Cols)
	}
	if len(v) != cfg.Rows {
		return fmt.Errorf("xbar: WriteSPICE with %d drives for %d rows", len(v), cfg.Rows)
	}
	// The drives must be ones Solve accepts, checked before any of the
	// deck is written.
	if err := checkDrive(cfg, v); err != nil {
		return err
	}
	// The cells are programmed exactly as Crossbar.Program does it.
	cell := make([]float64, len(g.Data))
	if err := programCells(cfg, cell, g.Data); err != nil {
		return err
	}

	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	p("* GENIEx crossbar netlist — %s", cfg.String())
	p("* generated by geniex (Go reproduction of DAC'20 GENIEx)")
	p(".param v0=%g vsat=%g", cfg.RRAM.V0, cfg.SelectorVsat)
	gsel := cfg.SelectorGonFactor / cfg.Ron
	p(".param gsel=%g", gsel)
	p("")

	// Word-line drivers and source resistances.
	for i := 0; i < cfg.Rows; i++ {
		p("Vin%d drv%d 0 DC %g", i, i, v[i])
		p("Rsrc%d drv%d r_%d_0 %g", i, i, i, cfg.Rsource)
	}
	p("")
	// Word-line wire segments.
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j+1 < cfg.Cols; j++ {
			p("Rwr_%d_%d r_%d_%d r_%d_%d %g", i, j, i, j, i, j+1, cfg.Rwire)
		}
	}
	// Bit-line wire segments and sink resistances.
	for j := 0; j < cfg.Cols; j++ {
		for i := 0; i+1 < cfg.Rows; i++ {
			p("Rwc_%d_%d c_%d_%d c_%d_%d %g", i, j, i, j, i+1, j, cfg.Rwire)
		}
		p("Rsnk%d c_%d_%d 0 %g", j, cfg.Rows-1, j, cfg.Rsink)
	}
	p("")
	// Cells: selector (row→mid) and RRAM (mid→col), each RRAM in its
	// programmed state: the sinh prefactor, or the conductance of a
	// linear cell.
	for i := 0; i < cfg.Rows; i++ {
		for j := 0; j < cfg.Cols; j++ {
			state := cell[i*cfg.Cols+j]
			if cfg.NonLinear {
				p("Gsel_%d_%d r_%d_%d m_%d_%d CUR='gsel*vsat*tanh(V(r_%d_%d,m_%d_%d)/vsat)'",
					i, j, i, j, i, j, i, j, i, j)
				p("Gmem_%d_%d m_%d_%d c_%d_%d CUR='%g*sinh(V(m_%d_%d,c_%d_%d)/v0)'",
					i, j, i, j, i, j, state, i, j, i, j)
			} else {
				p("Rsel_%d_%d r_%d_%d m_%d_%d %g", i, j, i, j, i, j, 1/gsel)
				p("Rmem_%d_%d m_%d_%d c_%d_%d %g", i, j, i, j, i, j, 1/state)
			}
		}
	}
	p("")
	p(".op")
	for j := 0; j < cfg.Cols; j++ {
		p(".print dc I(Rsnk%d)", j)
	}
	p(".end")
	return nil
}
