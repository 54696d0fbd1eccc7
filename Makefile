# Fex build/test/bench entry points.
GO ?= go
# pipefail so `go test | tee` recipes fail when the test run fails —
# otherwise a failing bench would silently regenerate BENCH_4.json.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# The ablation benchmarks committed as the BENCH_10.json trajectory: the
# design-decision quantifications (rebuild vs --no-build, repetition
# estimation, parallel scheduler scaling), the memoized execution
# engine's -r 32 speedup, the result store's batched plan-ahead resolve
# (bulk vs per-cell vfs operations on a 1000-cell warm resume), the
# run planner (in-run dedup executions saved, half-warm
# time-to-first-measurement, zero-build warm resume).
ABLATIONS := BenchmarkAblation_(RebuildVsNoBuild|RepetitionEstimate|ParallelScaling|MemoizedReps|StoreBulkResolve|PlanAhead)|BenchmarkModeledRepetition

.PHONY: build test race bench bench-smoke chaos gate gate-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# chaos runs the cluster tier under randomized seeded fault schedules
# (outages, latency, load skew, hangs on the non-pristine hosts, with
# speculation drawn on or off) plus the fixed fault-schedule determinism
# matrix (flap, slow host with and without speculation, hung host with a
# deadline, load skew, slow majority) and asserts the merged log and CSV
# stay byte-identical to serial every round. The seed is printed
# on failure; reproduce with `make chaos FEX_CHAOS_SEED=<seed>`.
FEX_CHAOS_SEED ?=
FEX_CHAOS_ROUNDS ?= 5
chaos:
	FEX_CHAOS_SEED=$(FEX_CHAOS_SEED) FEX_CHAOS_ROUNDS=$(FEX_CHAOS_ROUNDS) \
		$(GO) test -race -count=1 \
		-run 'TestClusterChaosSeededFaults|TestClusterDeterminismUnderFaultSchedules' \
		./internal/core/ -v

# bench regenerates BENCH_10.json from a fresh run of the ablation
# benchmarks. Commit the result so the perf trajectory travels with the
# code that produced it (BENCH_4.json, BENCH_6.json and BENCH_7.json are
# the previous points on that trajectory, kept for comparison).
bench:
	$(GO) test -run '^$$' -bench '$(ABLATIONS)' -benchtime 3x -count 1 . | tee .bench.out
	$(GO) run ./cmd/benchjson -out BENCH_10.json < .bench.out
	@rm -f .bench.out
	@echo "wrote BENCH_10.json"

# bench-smoke runs every benchmark in the module exactly once — the CI
# guard that keeps the bench suite compiling and passing its internal
# shape assertions without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The quickstart configuration gated in CI: modeled time makes the
# metrics machine-independent, so the committed baseline run set compares
# byte-for-byte-equal on any host.
GATE_ARGS := run -n phoenix -t gcc_native gcc_asan -b histogram word_count \
	-i test -r 2 --modeled-time --state .gate.state

# gate re-runs the quickstart configuration and fails on any significant
# regression against the committed baseline (fex self-hosting in CI).
# The state file is removed up front too: a stale store left by a failed
# prior run would mix old-fingerprint cells into the fresh one and turn
# the verdict into a confusing ambiguous-cell error.
gate:
	@rm -f .gate.state
	$(GO) run ./cmd/fex $(GATE_ARGS)
	$(GO) run ./cmd/fex gate -baseline testdata/quickstart_baseline --state .gate.state
	@rm -f .gate.state

# gate-baseline regenerates the committed baseline run set from a fresh
# quickstart run. Commit the result after an intentional metrics change.
gate-baseline:
	@rm -f .gate.state
	rm -rf testdata/quickstart_baseline
	$(GO) run ./cmd/fex $(GATE_ARGS)
	$(GO) run ./cmd/fex export -o testdata/quickstart_baseline --state .gate.state
	@rm -f .gate.state
