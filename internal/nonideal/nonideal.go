// Package nonideal is the composable non-ideality scenario library:
// first-class, seedable, JSON-serializable fault components that
// perturb a tile's programmed conductance matrix at lowering time, so
// every fidelity tier (ideal, analytical, GENIEx, circuit) sees the
// same degraded array.
//
// The design follows the `nonidealities: list[Nonideality]` shape of
// the joksas nonideality-aware-training line of work and TxSim's
// fault taxonomy: each physical effect is one small Component with a
// uniform Apply(conductances, env, rng, t) contract, and scenarios
// compose as ordered Stacks. A Stack round-trips through JSON via a
// static kind table and reproduces bit-identically from a seed, which
// is what makes sweep results checkpointable and resumable.
//
// Components never allocate result matrices: they perturb in place,
// clamped to the programming window [Goff, Gon], because downstream
// consumers (xbar.Crossbar.Program, the funcsim lowering) reject
// out-of-window conductances.
package nonideal

import (
	"fmt"
	"hash/fnv"
	"math"

	"geniex/internal/device"
	"geniex/internal/linalg"
)

// Env describes the design point a component perturbs within. It is a
// plain value (no xbar dependency) so the xbar package itself can
// adapt its legacy fault types over this package without an import
// cycle; xbar.EnvFromConfig builds one from an xbar.Config.
type Env struct {
	// Rows and Cols are the crossbar dimensions.
	Rows, Cols int
	// Goff and Gon bound the programmable conductance window
	// (siemens). Components clamp their output into it.
	Goff, Gon float64
	// Rsource, Rsink and Rwire are the parasitic resistances (ohms;
	// Rwire per cell segment) the LineResistance component scales.
	Rsource, Rsink, Rwire float64
	// Vsupply is the word-line drive voltage (volts).
	Vsupply float64
	// RRAM carries the filamentary compact-model parameters the Drift
	// component ages conductances through.
	RRAM device.RRAMParams
}

// Validate reports whether the environment is usable.
func (e Env) Validate() error {
	if e.Rows <= 0 || e.Cols <= 0 {
		return fmt.Errorf("nonideal: dimensions must be positive, got %dx%d", e.Rows, e.Cols)
	}
	if e.Goff <= 0 || e.Gon <= e.Goff {
		return fmt.Errorf("nonideal: conductance window [%g, %g] invalid", e.Goff, e.Gon)
	}
	return nil
}

// clamp forces g into the programming window.
func (e Env) clamp(g float64) float64 {
	if g < e.Goff {
		return e.Goff
	}
	if g > e.Gon {
		return e.Gon
	}
	return g
}

// Component is one composable non-ideality. Implementations must be
// pure given (g, env, rng, t): no hidden state, so the same seed
// reproduces the same perturbation bit-for-bit on any machine and at
// any worker count.
type Component interface {
	// Kind is the stable identifier used by the JSON envelope and the
	// Report.PerKind keys. Lower_snake, unique.
	Kind() string
	// Validate reports whether the parameters are meaningful.
	Validate() error
	// Apply perturbs g in place. rng is the component's private
	// deterministic stream (derived by the Stack; deterministic
	// components may ignore it) and t is the scenario clock reading in
	// seconds since array programming. It returns how many cells it
	// changed.
	Apply(g *linalg.Dense, env Env, rng *linalg.RNG, t float64) (touched int, err error)
}

// cycleVarying is implemented by components whose randomness re-draws
// every programming/read cycle: the Stack folds the clock reading into
// their rng seed, so the same scenario applied at two different times
// draws two different streams. Components without it (device-to-device
// variation, stuck-at) are fixed per-device fingerprints: their stream
// depends only on the seed, never on time.
type cycleVarying interface {
	cycleVarying()
}

// Clock supplies the scenario time in seconds since array programming.
// Injectable so tests and sweeps pin aging deterministically while a
// long-running server can wire a real elapsed-time source.
type Clock func() float64

// mix folds v into the running seed h with the SplitMix64 finalizer —
// the same generator family as linalg.RNG, used here purely as a
// deterministic hash so derived streams are independent of application
// order and of each other.
func mix(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// kindHash gives a stable 64-bit digest of a component kind.
func kindHash(kind string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(kind))
	return f.Sum64()
}

// DeriveSeed chains mix over the parts, starting from seed. Exported
// so integration layers (funcsim lowering, the sweep engine) derive
// per-tile and per-cell sub-seeds the same way.
func DeriveSeed(seed uint64, parts ...uint64) uint64 {
	h := mix(seed, 0x5ee9c0de)
	for _, p := range parts {
		h = mix(h, p)
	}
	return h
}

// poissonRound converts an expected count into an integer draw:
// floor(x) plus one with probability frac(x), so small rates still
// fire occasionally instead of truncating to zero.
func poissonRound(x float64, rng *linalg.RNG) int {
	if x <= 0 {
		return 0
	}
	n := int(x)
	if rng.Float64() < x-float64(n) {
		n++
	}
	return n
}

// lognormal draws exp(sigma·N(0,1)).
func lognormal(rng *linalg.RNG, sigma float64) float64 {
	return math.Exp(sigma * rng.Norm())
}
