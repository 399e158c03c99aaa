GO ?= go

.PHONY: ci vet fmt-check lint build test race fuzz bench bench-gate perfbench-check profile examples fig sim

ci: vet fmt-check lint build race fuzz bench perfbench-check examples ## full tier-1 + lint + race + fuzz + bench smoke + perfbench + examples

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Runs the staticcheck binary when one is
# installed (CI installs a pinned, cached version and enforces it);
# skips gracefully otherwise so tier-1 never needs the network.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI enforces it)"; \
	fi

# Formatting gate: fail if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Includes internal/smoke, which builds dsafig, dsasim and dsatrace
# with -race and checks their multi-process, cached, remote and served
# output against the serial CLI byte for byte, with the toolchain that
# runs the tests; an edit to their sources reruns it. `go test -short`
# skips it.
race:
	$(GO) test -race ./...

# A short run of each fuzz target over bytes read from outside the
# process. The seed corpora also run as plain tests under `make test`.
fuzz:
	$(GO) test ./internal/engine/battery -run '^$$' -fuzz '^FuzzLoadCosts$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime 10s
	$(GO) test ./internal/engine/dist -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s
	$(GO) test ./internal/workload/catalog -run '^$$' -fuzz '^FuzzReadEntry$$' -fuzztime 10s

# perfbench/ is its own Go module (replace dsa => ../), so the root
# `go build ./...` never compiles it — yet it links against the
# engine, battery, experiments and serve APIs. Vet and test it here so
# an API change that breaks the benchmark harness fails CI.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Benchmarks come in two speeds. `bench` is the smoke: one iteration
# of every benchmark, proving the experiment battery, the catalog
# shared-vs-regeneration and disk-replay comparisons, the dist round
# trips and the substrate micro-benchmarks still run end to end. It is
# part of `make ci` and measures nothing. `bench-gate` below is the
# measured run that CI actually gates on.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/experiments ./internal/workload/catalog ./internal/engine/dist

# The measured counterpart to the `bench` smoke: the hot-path
# benchmarks (heap alloc/free, TLB lookup, pager touch, replacement
# policies, the whole-battery sweep, dist round trips) at a fixed
# -benchtime/-count, snapshotted to JSON by cmd/dsabenchdiff — which
# keeps the fastest of the -count runs per benchmark, the stable floor
# for regression gating. CI's bench-gate job diffs the snapshot
# against the cached main baseline and fails the build when the
# geomean time ratio regresses by more than 10%; the BENCH_<pr>.json
# files committed at the repo root are local runs of this target, the
# recorded perf trajectory of the hot paths across PRs.
BENCH_GATE_OUT ?= bench-gate
BENCH_GATE_COUNT ?= 3
BENCH_GATE_TIME ?= 200ms
bench-gate:
	@set -e; \
	$(GO) test -run '^$$' -benchmem -count $(BENCH_GATE_COUNT) -benchtime $(BENCH_GATE_TIME) \
		-bench '^(BenchmarkHeapAllocFree|BenchmarkTLBLookup|BenchmarkPagerTouch|BenchmarkReplacementPolicies|BenchmarkAllSweep|BenchmarkDistRoundTrips|BenchmarkMetricsTable|BenchmarkCellSteadyState|BenchmarkWorkloadGen)$$' \
		. ./internal/engine/dist > $(BENCH_GATE_OUT).txt; \
	cat $(BENCH_GATE_OUT).txt; \
	$(GO) run ./cmd/dsabenchdiff parse -o $(BENCH_GATE_OUT).json $(BENCH_GATE_OUT).txt

# Profile the full experiment battery through the CLIs' own
# -cpuprofile/-memprofile flags (every sweep entry point registers
# them via internal/cliflags). The heap profile is written after a
# final GC, so it shows what the battery allocated, not what happened
# to be live. Inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
PROFILE_ARGS ?=
profile:
	$(GO) run ./cmd/dsafig -cpuprofile cpu.pprof -memprofile mem.pprof $(PROFILE_ARGS) > /dev/null
	@echo "profile: wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

# Build every example program, then run the quickstart end to end.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart

fig:
	$(GO) run ./cmd/dsafig

sim:
	$(GO) run ./cmd/dsasim -machine all -workload segments
