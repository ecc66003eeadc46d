package funcsim

import (
	"context"
	"fmt"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// Calibrated wraps an analog model with per-column digital gain
// calibration — the simplest of the compensation schemes the paper
// motivates (CxDNN [9] class). After programming, a set of random
// calibration vectors is driven through each tile; a per-column scalar
// gain α_j is fitted by least squares so that α_j·I_non-ideal tracks
// I_ideal, and the digital periphery multiplies every subsequent ADC
// reading by α_j.
//
// Gain calibration removes the *average* (data-independent) distortion
// of each column; the data-dependent residue — exactly what GENIEx
// models — remains, which is why compensation narrows but does not
// close the gap to ideal.
type Calibrated struct {
	// Inner is the analog model being compensated.
	Inner Model
	// Samples is the number of random calibration vectors per tile
	// (default 32).
	Samples int
	// Seed drives calibration vector generation.
	Seed uint64
	// Xbar must match the engine's crossbar design point (needed to
	// generate in-range calibration voltages).
	Xbar xbar.Config
}

// Name implements Model.
func (c Calibrated) Name() string { return c.Inner.Name() + "+cal" }

func (c Calibrated) surrogate() *core.Model { return surrogateOf(c.Inner) }

// NewTile implements Model: it builds the inner tile, fits the
// per-column gains, and returns the corrected tile.
func (c Calibrated) NewTile(g *linalg.Dense) (Tile, error) {
	inner, err := c.Inner.NewTile(g)
	if err != nil {
		return nil, err
	}
	samples := c.Samples
	if samples == 0 {
		samples = 32
	}
	if samples < 1 {
		return nil, fmt.Errorf("funcsim: calibration with %d samples", samples)
	}
	rng := linalg.NewRNG(c.Seed ^ 0xca11b7a7e)
	v := linalg.NewDense(samples, g.Rows)
	sparsities := []float64{0, 0.5, 0.9}
	for s := 0; s < samples; s++ {
		sp := sparsities[s%len(sparsities)]
		row := v.Row(s)
		for i := range row {
			if rng.Float64() >= sp {
				row[i] = c.Xbar.Vsupply * rng.Float64()
			}
		}
	}
	non, err := inner.Currents(v)
	if err != nil {
		return nil, fmt.Errorf("funcsim: calibration solve: %w", err)
	}
	ideal := linalg.MatMul(v, g)
	gain := make([]float64, g.Cols)
	for j := range gain {
		var num, den float64
		for s := 0; s < samples; s++ {
			num += ideal.At(s, j) * non.At(s, j)
			den += non.At(s, j) * non.At(s, j)
		}
		if den <= 0 {
			gain[j] = 1 // dark column: nothing to correct
			continue
		}
		gain[j] = num / den
	}
	return &calibratedTile{inner: inner, gain: gain}, nil
}

type calibratedTile struct {
	inner Tile
	gain  []float64
}

// Currents implements Tile: inner currents with per-column gains
// applied (the digital-domain correction, modeled in the current
// domain before the ADC back-conversion).
func (t *calibratedTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	return currents(t, v, len(t.gain))
}

func (t *calibratedTile) eval(ctx context.Context, dst, v *linalg.Dense, vc *core.VContext) error {
	if err := currentsInto(ctx, t.inner, dst, v, vc, len(t.gain)); err != nil {
		return err
	}
	t.apply(dst)
	return nil
}

// apply multiplies the fitted per-column gains of curr's (leading)
// columns in place; gains are read-only after calibration, so this is
// safe from concurrent tasks.
func (t *calibratedTile) apply(curr *linalg.Dense) {
	gain := t.gain[:curr.Cols]
	for b := 0; b < curr.Rows; b++ {
		row := curr.Row(b)
		for j := range row {
			row[j] *= gain[j]
		}
	}
}
