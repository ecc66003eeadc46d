// Package core implements GENIEx — the paper's primary contribution: a
// neural network that learns the transfer characteristics of a
// non-ideal memristive crossbar.
//
// For an N×M crossbar the network maps the concatenation of the input
// voltage vector V (N values) and the flattened conductance matrix G
// (N·M values) to the distortion ratio vector
//
//	fR(V, G) = Iideal / Inon-ideal   (M values),
//
// from which the non-ideal current is recovered as Iideal/fR.
// Predicting the ratio rather than the current avoids asking the MLP
// to model multiplicative V×G interactions (Section 4 of the paper).
//
// Training data comes from the circuit-level solver in package xbar —
// the repository's HSPICE substitute — on sparsity-stratified random
// (V, G) combinations mimicking the distributions produced by
// bit-sliced DNN workloads.
package core

import (
	"fmt"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// Dataset is a labelled set of crossbar transfer samples. All tensors
// are stored in physical units (volts, siemens, dimensionless fR);
// normalization happens inside the model.
type Dataset struct {
	Cfg xbar.Config
	V   *linalg.Dense // n × Rows input voltages
	G   *linalg.Dense // n × (Rows·Cols) conductances
	FR  *linalg.Dense // n × Cols distortion ratios (labels)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.V.Rows }

// GenOptions controls dataset synthesis.
type GenOptions struct {
	// Samples is the number of (V, G) combinations to generate.
	Samples int
	// StreamBits/SliceBits align the sampled voltages and conductances
	// to the digit grids produced by bit-sliced operation (the
	// workloads GENIEx will see inside the functional simulator).
	// Zero means continuous sampling.
	StreamBits, SliceBits int
	// Sparsities is the list of zero-probability strata; each sample
	// draws an input and a weight sparsity uniformly from this list.
	// Nil defaults to {0, 0.25, 0.5, 0.75, 0.9}, reflecting the high
	// sparsity the paper observes in bit-sliced DNN tensors.
	Sparsities []float64
	// Seed drives all randomness.
	Seed uint64
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Sparsities == nil {
		o.Sparsities = []float64{0, 0.25, 0.5, 0.75, 0.9}
	}
	return o
}

// Generate synthesizes a labelled dataset by driving the full
// non-linear circuit solver over random stratified (V, G)
// combinations. It is the Go equivalent of the paper's HSPICE data
// collection runs and uses all available CPUs.
func Generate(cfg xbar.Config, opt GenOptions) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.Samples <= 0 {
		return nil, fmt.Errorf("core: Generate with %d samples", opt.Samples)
	}
	rng := linalg.NewRNG(opt.Seed)
	n := opt.Samples
	ds := &Dataset{
		Cfg: cfg,
		V:   linalg.NewDense(n, cfg.Rows),
		G:   linalg.NewDense(n, cfg.Rows*cfg.Cols),
		FR:  linalg.NewDense(n, cfg.Cols),
	}
	for s := 0; s < n; s++ {
		sparsV := opt.Sparsities[rng.Intn(len(opt.Sparsities))]
		sparsG := opt.Sparsities[rng.Intn(len(opt.Sparsities))]
		fillVector(ds.V.Row(s), cfg.Vsupply, opt.StreamBits, sparsV, rng)
		fillConductances(ds.G.Row(s), cfg, opt.SliceBits, sparsG, rng)
	}

	// Label every sample with the circuit solver. Samples are
	// independent, so fan out: each worker programs its own crossbar.
	errs := make([]error, n)
	linalg.ParallelFor(n, func(lo, hi int) {
		xb, err := xbar.New(cfg)
		if err != nil {
			for s := lo; s < hi; s++ {
				errs[s] = err
			}
			return
		}
		g := linalg.NewDense(cfg.Rows, cfg.Cols)
		for s := lo; s < hi; s++ {
			copy(g.Data, ds.G.Row(s))
			if err := xb.Program(g); err != nil {
				errs[s] = err
				return
			}
			sol, err := xb.Solve(ds.V.Row(s))
			if err != nil {
				errs[s] = err
				return
			}
			ideal := xbar.IdealCurrents(ds.V.Row(s), g)
			copy(ds.FR.Row(s), xbar.Ratio(ideal, sol.Currents, cfg))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: labelling dataset: %w", err)
		}
	}
	return ds, nil
}

// fillVector draws one input voltage vector: each entry is zero with
// probability sparsity, otherwise uniform on (0, vmax] — aligned to
// the 2^bits−1 stream grid when bits > 0.
func fillVector(dst []float64, vmax float64, bits int, sparsity float64, rng *linalg.RNG) {
	levels := 0
	if bits > 0 {
		levels = (1 << bits) - 1
	}
	for i := range dst {
		if rng.Float64() < sparsity {
			dst[i] = 0
			continue
		}
		if levels > 0 {
			dst[i] = vmax * float64(1+rng.Intn(levels)) / float64(levels)
		} else {
			dst[i] = vmax * rng.Float64()
		}
	}
}

// fillConductances draws one conductance matrix: "sparse" cells sit at
// Goff (digital zero), others uniformly across the window — aligned to
// the 2^bits−1 slice grid when bits > 0.
func fillConductances(dst []float64, cfg xbar.Config, bits int, sparsity float64, rng *linalg.RNG) {
	levels := 0
	if bits > 0 {
		levels = (1 << bits) - 1
	}
	for i := range dst {
		if rng.Float64() < sparsity {
			dst[i] = cfg.Goff()
			continue
		}
		var level float64
		if levels > 0 {
			level = float64(1+rng.Intn(levels)) / float64(levels)
		} else {
			level = rng.Float64()
		}
		dst[i] = cfg.ConductanceFromLevel(level)
	}
}

// Split partitions the dataset into train and validation subsets with
// a deterministic shuffle. Each subset gets at least one sample, so the
// dataset must hold at least two; Split panics on a smaller one.
func (d *Dataset) Split(valFraction float64, seed uint64) (train, val *Dataset) {
	n := d.Len()
	if n < 2 {
		panic(fmt.Sprintf("core: Split of a %d-sample dataset; train and validation subsets need at least 2 samples", n))
	}
	nVal := int(float64(n) * valFraction)
	if nVal < 1 {
		nVal = 1
	}
	if nVal >= n {
		nVal = n - 1
	}
	perm := linalg.NewRNG(seed).Perm(n)
	pick := func(idx []int) *Dataset {
		out := &Dataset{
			Cfg: d.Cfg,
			V:   linalg.NewDense(len(idx), d.V.Cols),
			G:   linalg.NewDense(len(idx), d.G.Cols),
			FR:  linalg.NewDense(len(idx), d.FR.Cols),
		}
		for i, s := range idx {
			copy(out.V.Row(i), d.V.Row(s))
			copy(out.G.Row(i), d.G.Row(s))
			copy(out.FR.Row(i), d.FR.Row(s))
		}
		return out
	}
	return pick(perm[nVal:]), pick(perm[:nVal])
}
