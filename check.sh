#!/bin/sh
# Full repository gate (`make check` runs it): formatting, vet, build,
# tests, the race detector on the concurrency-bearing solver packages,
# and the end-to-end smoke checks in scripts/smoke.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
# perfbench is a nested module the root ./... skips; it imports the
# solver API, so vet and test it on its own.
(cd perfbench && go vet ./... && go test ./...)
# Packages whose MVM/batch/solver code fans out across goroutines.
# -short skips the circuit-in-the-loop pipeline tests that are too slow
# under race instrumentation.
go test -race -short ./internal/xbar ./internal/funcsim ./internal/hwtrain ./internal/linalg ./internal/obs ./internal/serve
go run ./scripts/smoke
# Tier names resolve only through the funcsim model registry: no Go
# file may switch on tier-name strings.
if grep -rn --include='*.go' -E 'case "(ideal|analytical|geniex|geniex-adaptive|circuit|fastcircuit)"' .; then
	echo "tier-name string switch found; use funcsim.ModelByName"; exit 1
fi
