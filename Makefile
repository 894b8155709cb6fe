# ActiveRMT simulator — build, test, and benchmark-regression targets.
#
# `make benchdiff` is the perf gate CI runs: it re-measures the packet-path
# pipeline benchmarks and fails if they regress past the committed
# BENCH_pipeline.json's noise bounds (see cmd/benchdiff).

GO ?= go

.PHONY: build test race bench benchdiff bench-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Packet-path microbenchmarks (ExecuteCapsule bare and with telemetry).
bench:
	$(GO) test -run xxx -bench 'BenchmarkPacketPath' -benchmem .

# Regression gate: re-run the pipeline harness and diff against the
# committed baseline. Ratio gates (fabric ratio, telemetry overhead) are
# machine-independent; add ABS=1 on the machine that produced the baseline
# to also gate raw pps.
benchdiff:
	$(GO) run ./cmd/benchdiff -baseline BENCH_pipeline.json -trials 3 $(if $(ABS),-absolute)

# Refresh the committed baseline with the gate's own best-of-N methodology
# (run on a quiet machine, then commit BENCH_pipeline.json).
bench-baseline:
	$(GO) run ./cmd/benchdiff -rebase -trials 5
