# Developer entry points. `make check` runs ./check.sh, the full gate;
# `make bench` records the MVM microbenchmarks.

GO ?= go

.PHONY: check bench

check:
	./check.sh

# MVM pipeline benchmarks: serial vs parallel wall-clock, the
# allocs/op contract (ideal steady state must report 0 allocs/op), and
# the circuit cold/seeded start comparison. benchjson tees the
# table to stdout and writes $(BENCH_OUT); override BENCH_OUT to keep
# older trajectory files.
BENCH_OUT ?= BENCH_PR10.json

bench:
	$(GO) test -run NONE -bench 'BenchmarkMVM' -benchmem . \
		| $(GO) run ./scripts/benchjson -out $(BENCH_OUT)
