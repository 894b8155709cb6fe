# ActiveRMT simulator — build, test, and benchmark-regression targets.
#
# `make benchdiff` is the perf gate CI runs: it re-measures the packet-path
# pipeline benchmarks and fails if they regress past the committed
# BENCH_pipeline.json's noise bounds (see cmd/benchdiff).

GO ?= go

.PHONY: build test race bench benchdiff bench-baseline bench-multicore

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Packet-path microbenchmarks (single capsule / batch / telemetry / lanes).
bench:
	$(GO) test -run xxx -bench 'BenchmarkPacketPath' -benchmem .

# Regression gate: re-run the pipeline harness and diff against the
# committed baseline. Ratio gates (speedups, telemetry overhead) are
# machine-independent; add ABS=1 on the machine that produced the baseline
# to also gate raw pps.
benchdiff:
	$(GO) run ./cmd/benchdiff -baseline BENCH_pipeline.json -trials 3 $(if $(ABS),-absolute)

# Refresh the committed baseline with the gate's own best-of-N methodology
# (run on a quiet machine, then commit BENCH_pipeline.json).
bench-baseline:
	$(GO) run ./cmd/benchdiff -rebase -trials 5

# Multi-core throughput run: the full harness (including the multicore
# series and its scaling-efficiency readout) under a 4-thread scheduler.
# Meaningful scaling numbers need >= 4 real CPUs; see docs/architecture.md.
bench-multicore:
	GOMAXPROCS=4 $(GO) run ./cmd/activebench -lanes 8 -packets 500000 -bench-out bench-multicore.json
