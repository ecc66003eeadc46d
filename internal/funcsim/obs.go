package funcsim

import "geniex/internal/obs"

// Metric handles for the MVM tile pipeline and the fidelity probe,
// registered once in the process-wide obs registry. Each one is read
// by a test, a smoke check or the benchmark; per-object detail lives
// in Matrix.Stats, SolverHealth, Matrix.NonIdeal and Probe.Stats. The
// full catalog is documented in DESIGN.md §7.
var (
	mMVMCalls       = obs.NewCounter("funcsim.mvm.calls")
	mMVMLatency     = obs.NewHistogram("funcsim.mvm.latency_seconds", obs.LatencyBuckets)
	mTileLatency    = obs.NewHistogram("funcsim.tile.latency_seconds", obs.LatencyBuckets)
	mFreelistHits   = obs.NewCounter("funcsim.run.freelist_hits")
	mFreelistMisses = obs.NewCounter("funcsim.run.freelist_misses")
	mLayerLatency   = obs.NewHistogram("funcsim.forward.layer_seconds", obs.LatencyBuckets)
	mForwardLatency = obs.NewHistogram("funcsim.forward.latency_seconds", obs.LatencyBuckets)

	// Process-wide mirrors of two per-Matrix hardware-event counters:
	// every completed MVM folds its crossbar ops and rows here as well
	// as into its matrix, so a metrics snapshot sees total
	// architectural work without walking matrices.
	mCrossbarOps = obs.NewCounter("funcsim.mvm.crossbar_ops")
	mMVMRows     = obs.NewCounter("funcsim.mvm.rows")

	// Fidelity: the divergence probe (see Probe) counts its successful
	// shadow-solves and publishes each one's emulator-vs-circuit
	// relative RMSE of currents, so "is the emulation still faithful"
	// is answerable from any metrics snapshot.
	mProbeSolved = obs.NewCounter("funcsim.probe.solved")
	mProbeRRMSE  = obs.NewHistogram("funcsim.probe.rrmse", obs.ExpBuckets(1e-4, 2, 18))
)
