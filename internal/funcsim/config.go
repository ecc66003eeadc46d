package funcsim

import (
	"geniex/internal/nonideal"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// Option adjusts a Config under construction by NewConfig.
type Option func(*Config)

// WithFormats sets the fixed-point formats of weights and activations.
func WithFormats(weight, act quant.FxP) Option {
	return func(c *Config) { c.Weight, c.Act = weight, act }
}

// WithStreamBits sets the input-stream digit width.
func WithStreamBits(n int) Option { return func(c *Config) { c.StreamBits = n } }

// WithSliceBits sets the weight-slice digit width.
func WithSliceBits(n int) Option { return func(c *Config) { c.SliceBits = n } }

// WithADCBits sets the converter resolution at each bit line.
func WithADCBits(n int) Option { return func(c *Config) { c.ADCBits = n } }

// WithAcc sets the saturating output accumulator format.
func WithAcc(acc quant.Acc) Option { return func(c *Config) { c.Acc = acc } }

// WithWorkers bounds how many tile tasks of one MVM run concurrently
// (0 = GOMAXPROCS, 1 = serial on the caller; see Config.Workers).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithProbeRate enables the online fidelity probe at a 1-in-n tile
// sampling rate (0 disables; see Config.ProbeRate and Probe).
func WithProbeRate(n int) Option { return func(c *Config) { c.ProbeRate = n } }

// WithScenario perturbs every lowered tile with the given non-ideality
// scenario (nil disables; see Config.Scenario).
func WithScenario(sc *nonideal.Scenario) Option { return func(c *Config) { c.Scenario = sc } }

// WithSwappable enables model hot-swap on the engine: lowered matrices
// retain their programmed conductances so Engine.SwapModel can rebuild
// and atomically publish a new analog model under live traffic (see
// Config.Swappable).
func WithSwappable() Option { return func(c *Config) { c.Swappable = true } }

// NewConfig builds a validated architecture: the paper's nominal
// parameters (DefaultConfig) on the given crossbar design point,
// adjusted by the options, checked once by Validate — including the
// crossbar's own validation. Construction sites should prefer it over
// mutating struct literals, so inconsistent digit widths and formats
// surface here instead of deep inside a lowering or MVM.
func NewConfig(x xbar.Config, opts ...Option) (Config, error) {
	c := DefaultConfig()
	c.Xbar = x
	for _, o := range opts {
		o(&c)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
