#!/bin/sh
# Full repository gate, run as ./check.sh: formatting, vet, build,
# tests, the race detector on the concurrency-bearing solver packages,
# and the end-to-end smoke checks in scripts/smoke.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
# BenchmarkMVMCircuit fails when seeded circuit MVM output drifts more
# than 1e-6 rRMSE from cold-start Newton; one iteration runs the gate.
go test -run '^$' -bench 'BenchmarkMVMCircuit/(cold|seeded)$' -benchtime 1x .
# perfbench is a nested module the root ./... skips; it imports the
# solver API, so vet and test it on its own.
(cd perfbench && go vet ./... && go test ./...)
# Packages whose MVM/batch/solver code fans out across goroutines,
# plus the calibrator (hot-swaps models from a background goroutine),
# the sweep runner (executes cells concurrently) and nn (Adam splits
# large parameters across workers).
# -short skips the circuit-in-the-loop pipeline tests that are too slow
# under race instrumentation.
go test -race -short ./internal/xbar ./internal/funcsim ./internal/hwtrain ./internal/linalg ./internal/obs ./internal/serve ./internal/calib ./internal/sweep ./internal/nn
# The fan-out pool's contract (every index once, the width bound,
# nesting inside busy workers, panics reaching the caller), twenty
# passes under race so that recruitment, nesting and completion
# interleave differently on each (a few seconds).
go test -race -count 20 -run 'Pool|ParallelEach|ParallelFor' ./internal/linalg
# core's training step fans its products and Adam out; its tests run
# under race on their own, since the whole core suite is slow there.
go test -race -short -run 'TestTrainMatchesSequentialReference|TestTunerStepMatchesSequentialReference|TestTrainStepAllocatesNothing|TestModelTrainingReducesError' ./internal/core
# Fuzz the parsers of untrusted input, the /v1/infer body, the
# nonideal scenario envelope and the sweep spec file, beyond their
# seed corpora.
go test -run '^$' -fuzz '^FuzzInfer$' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz '^FuzzScenarioJSON$' -fuzztime 10s ./internal/nonideal
go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 10s ./internal/sweep
go run ./scripts/smoke
# Tier names resolve only through the funcsim model registry: no Go
# file may switch on tier-name strings.
if grep -rn --include='*.go' -E 'case "(ideal|analytical|geniex|geniex-adaptive|circuit|fastcircuit)"' .; then
	echo "tier-name string switch found; use funcsim.ModelByName"; exit 1
fi
