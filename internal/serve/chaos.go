package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"geniex/internal/linalg"
)

// ErrChaos is the transient fault the chaos layer injects into tier
// execution. It is retryable: the retry/backoff schedule and the
// circuit breaker treat it exactly like a degraded circuit solve.
var ErrChaos = errors.New("serve: chaos-injected fault")

// ChaosPolicy is the fault-injection layer the robustness tests and
// the `serve` smoke check drive the server with. All injection happens
// inside the serving path — the analog models themselves are
// untouched. Faults below the serving path belong to the tier's own
// configuration: an xbar.FaultPlan fails circuit solves, a
// nonideal.Scenario perturbs the lowered conductances
// (cmd/geniex-serve's -chaos-fail-attempts and -chaos-stuck-* flags).
//
// A zero policy injects nothing.
type ChaosPolicy struct {
	// Latency is added to every tier execution; LatencyJitter adds a
	// further uniform draw in [0, LatencyJitter).
	Latency       time.Duration
	LatencyJitter time.Duration
	// ErrorRate in [0,1] is the probability a tier execution fails
	// with ErrChaos instead of running.
	ErrorRate float64
	// SpareFloor exempts the ladder's floor (last) tier from latency
	// and error injection. The smoke test relies on it: chaos makes
	// the faithful tiers slow and flaky while the floor stays fast and
	// reliable, so shedding genuinely relieves load and every request
	// still ends in a typed success.
	SpareFloor bool
	// StallEvery > 0 stalls every StallEvery-th admitted request for
	// Stall while it holds its queue slot, simulating a tenant whose
	// requests park in the queue and push the load factor up.
	StallEvery int
	Stall      time.Duration
	// Seed makes the injection schedule reproducible; 0 seeds from 1.
	Seed uint64

	once  sync.Once
	mu    sync.Mutex
	rng   *linalg.RNG
	admit atomic.Int64
}

// enabled reports whether the policy injects anything on the tier
// execution path.
func (c *ChaosPolicy) enabled() bool {
	return c != nil && (c.Latency > 0 || c.LatencyJitter > 0 || c.ErrorRate > 0)
}

func (c *ChaosPolicy) init() {
	c.once.Do(func() {
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.rng = linalg.NewRNG(seed)
	})
}

// draw returns this execution's injected latency and whether it must
// fail with ErrChaos.
func (c *ChaosPolicy) draw() (time.Duration, bool) {
	c.init()
	c.mu.Lock()
	defer c.mu.Unlock()
	lat := c.Latency
	if c.LatencyJitter > 0 {
		lat += time.Duration(c.rng.Float64() * float64(c.LatencyJitter))
	}
	fail := c.ErrorRate > 0 && c.rng.Float64() < c.ErrorRate
	return lat, fail
}

// stall reports whether this admission is one of the injected queue
// stalls and, if so, for how long.
func (c *ChaosPolicy) stall() (time.Duration, bool) {
	if c == nil || c.StallEvery <= 0 || c.Stall <= 0 {
		return 0, false
	}
	if c.admit.Add(1)%int64(c.StallEvery) == 0 {
		return c.Stall, true
	}
	return 0, false
}
