# Developer entry points. `make check` is the full gate: formatting,
# vet, build, the whole test suite, the race detector on the packages
# with concurrent solver paths, and the end-to-end smokes.

GO ?= go

# Packages whose MVM/batch/solver code fans out across goroutines; the
# race detector must stay clean on these. -short skips the
# circuit-in-the-loop pipeline tests that are too slow under race
# instrumentation.
RACE_PKGS = ./internal/xbar ./internal/funcsim ./internal/hwtrain ./internal/linalg ./internal/obs ./internal/serve

.PHONY: check fmt vet build test perfbench-test race bench obs-smoke trace-smoke serve-smoke sweep-smoke calib-smoke load-smoke tier-registry-gate obs-catalog-gate

check: fmt vet build test perfbench-test race obs-smoke trace-smoke serve-smoke sweep-smoke calib-smoke load-smoke tier-registry-gate obs-catalog-gate

# gofmt cleanliness gate: fails listing the offending files.
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a nested module the root ./... skips; it imports the
# solver API, so vet and test it on its own.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race -short $(RACE_PKGS)

# MVM pipeline benchmarks: serial vs parallel wall-clock, the
# allocs/op contract (ideal steady state must report 0 allocs/op), and
# the circuit cold/seeded start comparison. benchjson tees the
# table to stdout and writes $(BENCH_OUT); override BENCH_OUT to keep
# older trajectory files.
BENCH_OUT ?= BENCH_PR10.json

bench:
	$(GO) test -run NONE -bench 'BenchmarkMVM' -benchmem . \
		| $(GO) run ./scripts/benchjson -out $(BENCH_OUT)

# End-to-end metrics gate: run a tiny funcsim-run with -metrics-addr,
# the fidelity probe, and trace export, scrape the endpoint, and assert
# the JSON snapshot holds live solver, tile, and probe-divergence
# histograms plus a valid Chrome trace file.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# End-to-end trace gate: a short probed funcsim-run emits a Chrome
# trace file, which tracecheck validates (parses, >= 1 event, sane
# fields).
trace-smoke:
	$(GO) run ./cmd/funcsim-run -mode ideal -size 8 -train 24 -test 6 \
		-epochs 1 -channels 4 -probe-rate 8 -trace-out trace_smoke.json
	$(GO) run ./scripts/tracecheck trace_smoke.json
	rm -f trace_smoke.json

# End-to-end overload gate: start geniex-serve with chaos injection,
# drive a loadgen burst past the faithful tier's sustainable rate, and
# assert zero 5xx plus nonzero serve.shed and serve.retry counters.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# End-to-end crash-resume gate: run a tiny scenario grid, SIGKILL a
# second run mid-grid, resume it, and assert no cell ran twice and
# every result file is byte-identical to the uninterrupted run's.
sweep-smoke:
	$(GO) run ./scripts/sweepsmoke

# End-to-end online-calibration gate: a frozen and a calibrated GENIEx
# tier under concurrent MVM traffic; the calibrated tier's probe rRMSE
# must end >= 2x lower, with >= 1 hot-swap and zero failed MVMs.
calib-smoke:
	$(GO) run ./scripts/calibsmoke

# End-to-end per-tenant observability gate: geniex-serve with a
# circuit-backed ladder and an armed latency SLO under loadgen
# traffic; the served per-tenant histograms must agree with loadgen's
# client-side view, the Prometheus exposition must carry the
# per-tenant series and SLO burn-rate gauges, and /trace must export
# a parented span tree from a circuit solve up to a per-tenant
# serve.request root.
load-smoke:
	$(GO) run ./scripts/loadsmoke

# Every registered obs metric name must appear in the DESIGN.md §13
# catalog, so the catalog cannot silently rot.
obs-catalog-gate:
	$(GO) run ./scripts/obscatalog

# The model registry is the single source of truth for fidelity-tier
# names: no Go file may switch on tier-name strings (funcsim-run,
# geniex-serve, sweep and the examples all resolve through
# funcsim.ModelByName).
tier-registry-gate:
	@if grep -rn --include='*.go' -E 'case "(ideal|analytical|geniex|geniex-adaptive|circuit|fastcircuit)"' .; then \
		echo "tier-name string switch found; use funcsim.ModelByName"; exit 1; fi
