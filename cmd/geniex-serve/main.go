// Command geniex-serve is the overload-resilient serving frontend: it
// trains a small CNN on a synthetic dataset, lowers it through the
// functional simulator once per configured fidelity tier, and serves
// POST /v1/infer with deadlines, admission control, retry/backoff,
// per-tier circuit breakers, and a degradation ladder that sheds to
// cheaper tiers under load (see DESIGN.md §9).
//
// Example:
//
//	geniex-serve -addr 127.0.0.1:8080 -tiers analytical,ideal
//	curl -s localhost:8080/v1/infer -d '{"inputs":[[0.1, ...]]}'
//
// Endpoints: POST /v1/infer, GET /healthz, GET /metrics (obs
// snapshot; ?format=prom for Prometheus exposition), GET /trace
// (Chrome trace-event JSON), GET /debug/pprof/ with -pprof.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"geniex/internal/calib"
	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/models"
	"geniex/internal/nonideal"
	"geniex/internal/obs"
	"geniex/internal/quant"
	"geniex/internal/serve"
	"geniex/internal/xbar"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geniex-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr  = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		tiers = flag.String("tiers", "analytical,ideal", "fidelity ladder, most faithful first: comma-separated subset of "+strings.Join(funcsim.ModelNames(), ",")+"; the last is the floor")

		// Model and design point. The defaults keep startup fast; the
		// server's point is resilience machinery, not accuracy.
		size     = flag.Int("size", 8, "crossbar (tile) size")
		bits     = flag.Int("bits", 8, "weight/activation precision")
		streams  = flag.Int("streams", 2, "input stream width (bits)")
		slices   = flag.Int("slices", 2, "weight slice width (bits)")
		adcBits  = flag.Int("adc", 14, "ADC bits")
		channels = flag.Int("channels", 4, "CNN width")
		epochs   = flag.Int("epochs", 1, "CNN training epochs")
		nTrain   = flag.Int("train", 256, "training images")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "concurrent tile tasks per MVM (0 = all cores)")

		gxSamples = flag.Int("geniex-samples", 200, "geniex tier: dataset samples for surrogate training")
		gxEpochs  = flag.Int("geniex-epochs", 60, "geniex tier: surrogate training epochs")

		// Robustness knobs.
		maxInFlight = flag.Int("max-inflight", 4, "concurrently executing requests")
		tenantQueue = flag.Int("tenant-queue", 16, "per-tenant admission queue bound")
		deadlineD   = flag.Duration("deadline", time.Second, "default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 10*time.Second, "cap on client-requested deadlines")
		retryMax    = flag.Int("retry-max", 2, "retries per tier for transient failures")
		boBase      = flag.Duration("backoff-base", 5*time.Millisecond, "retry backoff base delay")
		boCap       = flag.Duration("backoff-cap", 80*time.Millisecond, "retry backoff cap")
		boFactor    = flag.Float64("backoff-factor", 2, "retry backoff multiplier")
		boJitter    = flag.Float64("backoff-jitter", 0.5, "retry backoff jitter fraction [0,1]")
		brkTrip     = flag.Int("breaker-trip", 5, "consecutive failures that open a tier's breaker")
		brkCooldown = flag.Duration("breaker-cooldown", time.Second, "breaker open→half-open cooldown")
		shedAt      = flag.Float64("shed-at", 1.5, "load factor at which non-floor tiers shed (0 disables)")

		// Probe-driven distrust: sample MVMs through the circuit
		// solver and shed the faithful tier when divergence drifts.
		probeRate  = flag.Int("probe-rate", 0, "sample 1 in n tile MVMs through the fidelity probe (0 disables)")
		driftLimit = flag.Float64("drift-limit", 0, "probe drift above which the probed tier is distrusted (0 disables)")
		sloRRMSE   = flag.Float64("slo-rrmse", 0, "fidelity SLO: probe rRMSE above which a sample is out of objective; distrust and (with -calibrate) recalibration key off the windowed burn rate (0 disables)")
		sloFidObj  = flag.Float64("slo-fidelity-objective", 0.9, "fidelity SLO: target fraction of probe samples with rRMSE under -slo-rrmse; burn rate >= 1 distrusts the tier")
		sloWindow  = flag.Duration("slo-window", time.Minute, "sliding window for the SLO burn-rate trackers")

		// Latency SLO: arms the serve.latency burn-rate tracker (obs
		// snapshot / Prometheus exposition / alerting).
		sloLatTarget = flag.Duration("slo-latency-target", 0, "latency SLO: a request is good when served within this target (0 disables the serve.latency tracker)")
		sloLatObj    = flag.Float64("slo-latency-objective", 0.99, "latency SLO: target fraction of requests served within -slo-latency-target")
		calibrate    = flag.Bool("calibrate", false, "adaptive tiers: fine-tune the surrogate in the background on probe shadow-solves and hot-swap improved versions into live traffic (needs -probe-rate)")
		canaryN      = flag.Int("calibrate-canary", 16, "adaptive tiers: while distrusted, let 1 in n requests through anyway so the probe keeps sampling and calibration can both train and observe recovery (0 starves the loop)")

		// Chaos layer (tests and smoke): see serve.ChaosPolicy.
		chaosLatency  = flag.Duration("chaos-latency", 0, "chaos: latency injected into tier execution")
		chaosJitter   = flag.Duration("chaos-latency-jitter", 0, "chaos: extra uniform latency")
		chaosErrRate  = flag.Float64("chaos-error-rate", 0, "chaos: probability a tier execution fails transiently")
		chaosSpare    = flag.Bool("chaos-spare-floor", true, "chaos: exempt the floor tier from injection")
		chaosStallN   = flag.Int("chaos-stall-every", 0, "chaos: stall every nth admitted request (0 disables)")
		chaosStall    = flag.Duration("chaos-stall", 0, "chaos: queue-stall duration")
		chaosFailAtt  = flag.Int("chaos-fail-attempts", 0, "chaos: xbar fault plan — fail the first n solve attempts per circuit batch item")
		chaosStuckOn  = flag.Float64("chaos-stuck-on", 0, "chaos: probability a circuit-tier cell is stuck at Gon")
		chaosStuckOff = flag.Float64("chaos-stuck-off", 0, "chaos: probability a circuit-tier cell is stuck at Goff")
		chaosSeed     = flag.Uint64("chaos-seed", 1, "chaos: injection schedule seed")
		withPprof     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	tierNames := strings.Split(*tiers, ",")
	if len(tierNames) == 0 || tierNames[0] == "" {
		return fmt.Errorf("empty -tiers")
	}

	// Train the float model once; every tier lowers the same network.
	set := dataset.SynthCIFAR(*nTrain, 16, *seed+10)
	fmt.Printf("serve: training MiniConvNet on %s (%d images, %d epochs)...\n", set.Name, *nTrain, *epochs)
	net0 := models.MiniConvNet(set, *channels, *seed+30)
	if err := models.Train(net0, set, models.TrainConfig{
		Epochs: *epochs, BatchSize: 32, LR: 0.05, Seed: *seed + 40,
	}); err != nil {
		return err
	}

	fxp := quant.FxP{Bits: *bits, Frac: *bits - 3}
	newSimCfg := func(xcfg xbar.Config, probe int, swappable bool, sc *nonideal.Scenario) (funcsim.Config, error) {
		opts := []funcsim.Option{
			funcsim.WithScenario(sc),
			funcsim.WithFormats(fxp, fxp),
			funcsim.WithStreamBits(*streams), funcsim.WithSliceBits(*slices),
			funcsim.WithADCBits(*adcBits), funcsim.WithWorkers(*workers),
			funcsim.WithProbeRate(probe),
		}
		if swappable {
			opts = append(opts, funcsim.WithSwappable())
		}
		return funcsim.NewConfig(xcfg, opts...)
	}

	chaos := &serve.ChaosPolicy{
		Latency: *chaosLatency, LatencyJitter: *chaosJitter,
		ErrorRate: *chaosErrRate, SpareFloor: *chaosSpare,
		StallEvery: *chaosStallN, Stall: *chaosStall,
		Seed: *chaosSeed,
	}
	// Solver faults and stuck cells reach the circuit tier only: the
	// plan fails its solves, the scenario pins cells of the arrays it
	// lowers. Every tier lowers through its own engine, so the other
	// tiers stay clean.
	var solverFaults *xbar.FaultPlan
	if *chaosFailAtt > 0 {
		solverFaults = &xbar.FaultPlan{FailAttempts: *chaosFailAtt}
	}
	var stuck *nonideal.Scenario
	if *chaosStuckOn > 0 || *chaosStuckOff > 0 {
		stuck = &nonideal.Scenario{
			Stack: nonideal.Stack{&nonideal.StuckAt{POn: *chaosStuckOn, POff: *chaosStuckOff}},
			Seed:  *chaosSeed,
		}
	}

	var (
		ladder   []serve.Tier
		prevRank int
		sharedGX *core.Model // surrogate trained once, shared by every tier that needs it
		// fidSLO is the shared fidelity burn-rate tracker; every probed
		// tier's samples feed it (good = rRMSE within -slo-rrmse), and
		// both the distrust gate and the calibration trigger key off
		// its burn rate rather than raw point readings.
		fidSLO *obs.SLO
	)
	for i, name := range tierNames {
		name = strings.TrimSpace(name)
		spec, err := funcsim.ModelByName(name)
		if err != nil {
			return err
		}
		// The ladder degrades: each tier must be strictly less faithful
		// than the one before it, by tier rank.
		if i > 0 && spec.Rank >= prevRank {
			return fmt.Errorf("tier %q (rank %d) is not less faithful than its predecessor (rank %d); order -tiers most faithful first",
				name, spec.Rank, prevRank)
		}
		prevRank = spec.Rank

		xcfg, err := xbar.NewConfig(*size, *size, xbar.WithBatchWorkers(1))
		if err != nil {
			return err
		}
		var sc *nonideal.Scenario
		if spec.Circuit {
			xcfg = xcfg.WithFaults(solverFaults)
			sc = stuck
		}
		// The fidelity probe rides on the first non-circuit tier (both
		// circuit tiers already run the solver it shadows) — and, with
		// -calibrate, on every adaptive tier, whose calibrator feeds on
		// the probe's shadow-solves.
		adaptive := spec.Adaptive && *calibrate
		probe := 0
		if (i == 0 || adaptive) && !spec.Circuit {
			probe = *probeRate
		}
		simCfg, err := newSimCfg(xcfg, probe, adaptive, sc)
		if err != nil {
			return err
		}

		params := funcsim.ModelParams{Xbar: simCfg.Xbar}
		if spec.NeedsSurrogate {
			if sharedGX == nil {
				fmt.Println("serve: training GENIEx surrogate...")
				if sharedGX, err = trainSurrogate(simCfg.Xbar, *streams, *slices, *gxSamples, *gxEpochs, *seed); err != nil {
					return err
				}
			}
			params.Surrogate = sharedGX
		}
		model, err := spec.New(params)
		if err != nil {
			return err
		}

		eng, err := funcsim.NewEngine(simCfg, model)
		if err != nil {
			return err
		}
		defer eng.Close()
		sim, err := funcsim.Lower(net0, eng)
		if err != nil {
			return err
		}
		tier := serve.Tier{Name: name, Runner: sim, Version: eng.ModelVersion}
		if i < len(tierNames)-1 {
			tier.ShedAt = *shedAt
		}
		if p := eng.Probe(); p != nil && *sloRRMSE > 0 {
			// Feed the shared fidelity SLO: each probe shadow-solve is
			// one observation, good when its rRMSE met -slo-rrmse. The
			// hook is separate from the calibrator's sample tap, so
			// both consumers see every sample.
			if fidSLO == nil {
				fidSLO = obs.NewSLO("funcsim.probe.fidelity", obs.SLOConfig{
					Objective: *sloFidObj, Window: *sloWindow,
				})
			}
			slo, thr := fidSLO, *sloRRMSE
			p.OnSample(func(rr float64) { slo.Observe(rr <= thr) })
		}
		// outOfSpec is the tier's one fidelity verdict: probe drift
		// past -drift-limit, or the fidelity error budget burning
		// unsustainably. It distrusts the tier and, with -calibrate,
		// triggers tuning rounds; nil when neither signal is armed.
		var outOfSpec func() bool
		if p := eng.Probe(); p != nil && (*driftLimit > 0 || fidSLO != nil) {
			limit, slo := *driftLimit, fidSLO
			outOfSpec = func() bool {
				st := p.Stats()
				return (limit > 0 && st.BaselineRecorded && st.Drift > limit) ||
					(slo != nil && slo.BurnRate() >= 1)
			}
			// A distrusted tier serves no traffic, so its probe stops
			// sampling — which would starve the calibrator of training
			// data AND freeze the very signals that could clear the
			// distrust. While calibrating, canary 1 in n requests
			// through the gate to keep the loop live.
			canary := &atomic.Uint64{}
			canaryEvery := uint64(0)
			if adaptive && *canaryN > 0 {
				canaryEvery = uint64(*canaryN)
			}
			tier.Distrust = func() bool {
				out := outOfSpec()
				if out && canaryEvery > 0 && canary.Add(1)%canaryEvery == 0 {
					return false
				}
				return out
			}
		}
		if adaptive {
			if p := eng.Probe(); p == nil {
				return fmt.Errorf("tier %q: -calibrate needs -probe-rate > 0 (the calibrator trains on probe shadow-solves)", name)
			} else {
				cal, err := calib.New(calib.Config{
					Model: sharedGX,
					Probe: p,
					Swap: func(m *core.Model) (int64, error) {
						return eng.SwapModel(funcsim.GENIEx{Model: m})
					},
					Trigger: outOfSpec,
					Seed:    *seed + 100,
				})
				if err != nil {
					return err
				}
				defer cal.Close()
				fmt.Printf("serve: tier %s: online calibration armed (slo-rrmse %g, drift-limit %g)\n", name, *sloRRMSE, *driftLimit)
			}
		}
		ladder = append(ladder, tier)
		fmt.Printf("serve: tier %d: %s (%d crossbars/layer-matrix)\n", i, name, simCfg.Xbar.Rows)
	}

	srv, err := serve.NewServer(serve.Config{
		Tiers:       ladder,
		In:          set.Features(),
		Out:         set.Classes,
		MaxInFlight: *maxInFlight,
		TenantQueue: *tenantQueue,
		Deadline:    *deadlineD,
		MaxDeadline: *maxDeadline,
		RetryMax:    *retryMax,
		Backoff:     serve.Backoff{Base: *boBase, Cap: *boCap, Factor: *boFactor, Jitter: *boJitter},
		BreakerTrip: *brkTrip, BreakerCooldown: *brkCooldown,
		Chaos:            chaos,
		Seed:             *seed,
		LatencyTarget:    *sloLatTarget,
		LatencyObjective: *sloLatObj,
		LatencySLOWindow: *sloWindow,
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/infer", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/metrics", obs.Handler())
	mux.Handle("/trace", obs.Default().TraceHandler())
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on http://%s\n", ln.Addr())
	return http.Serve(ln, mux)
}

// trainSurrogate builds a GENIEx surrogate for the design point (the
// geniex tier has no pretrained-model path here; keep the sample and
// epoch counts small).
func trainSurrogate(xcfg xbar.Config, streams, slices, samples, epochs int, seed uint64) (*core.Model, error) {
	ds, err := core.Generate(xcfg, core.GenOptions{
		Samples:    samples,
		StreamBits: streams, SliceBits: slices,
		Sparsities: []float64{0, 0.5, 0.9},
		Seed:       seed + 50,
	})
	if err != nil {
		return nil, err
	}
	gx, err := core.NewModel(xcfg, 64, seed+60)
	if err != nil {
		return nil, err
	}
	if err := gx.Train(ds, core.TrainOptions{Epochs: epochs, Seed: seed + 70}); err != nil {
		return nil, err
	}
	return gx, nil
}
