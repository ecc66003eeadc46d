#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload sim-circuit --seed 1 --seconds 30 --trace 0
#
# Build artefacts (binary, Go build cache, temp files) stay under
# .bench_build/ in the current directory. Without the repository
# source next to perfbench/ the build fails and the script exits
# non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps its config and telemetry under the user config
# directory; point it inside the build directory for the build.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
