GO ?= go

.PHONY: ci vet fmt-check lint build test race fuzz bench bench-gate perfbench-check profile examples fig sim dist-smoke battery-smoke tcp-smoke scenario-smoke serve-smoke load-smoke

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

race:
	$(GO) test -race ./...

# A short run of each fuzz target over bytes read from outside the
# process. The seed corpora also run as plain tests under `make test`.
fuzz:
	$(GO) test ./internal/engine/battery -run '^$$' -fuzz '^FuzzLoadCosts$$' -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime 10s
	$(GO) test ./internal/engine/dist -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s

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

# Cross-process determinism check: a real multi-process sweep must be
# byte-identical to the in-process pool — per-cell, batched, and
# against a cold or warm workload cache directory — with every cell
# actually distributed (the stderr summary proves no silent local
# fallback) and the warm run actually replaying from disk (the store
# summary proves zero regenerations). CI's dist-smoke job runs this;
# it is cheap enough to run locally.
dist-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/dsasim" ./cmd/dsasim; \
	$(GO) build -o "$$tmp/dsafig" ./cmd/dsafig; \
	"$$tmp/dsasim" -machine all -parallel 2 -workload segments > "$$tmp/sim-parallel.out"; \
	"$$tmp/dsasim" -machine all -workers 2 -workload segments > "$$tmp/sim-workers.out" 2> "$$tmp/sim-workers.err"; \
	cat "$$tmp/sim-workers.err"; \
	cmp "$$tmp/sim-parallel.out" "$$tmp/sim-workers.out"; \
	grep -q "7 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/sim-workers.err"; \
	"$$tmp/dsasim" -machine all -workers 2 -batch 3 -workload segments > "$$tmp/sim-batch.out"; \
	cmp "$$tmp/sim-parallel.out" "$$tmp/sim-batch.out"; \
	"$$tmp/dsafig" -parallel 4 t1 t4 > "$$tmp/fig-parallel.out"; \
	"$$tmp/dsafig" -workers 2 t1 t4 > "$$tmp/fig-workers.out" 2> "$$tmp/fig-workers.err"; \
	cat "$$tmp/fig-workers.err"; \
	cmp "$$tmp/fig-parallel.out" "$$tmp/fig-workers.out"; \
	grep -q "16 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/fig-workers.err"; \
	"$$tmp/dsafig" -workers 2 -batch 4 t1 t4 > "$$tmp/fig-batch.out" 2> "$$tmp/fig-batch.err"; \
	cmp "$$tmp/fig-parallel.out" "$$tmp/fig-batch.out"; \
	grep -q "16 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/fig-batch.err"; \
	"$$tmp/dsafig" -cache-dir "$$tmp/cache" t1 t4 > "$$tmp/fig-cold.out" 2> "$$tmp/fig-cold.err"; \
	cat "$$tmp/fig-cold.err"; \
	cmp "$$tmp/fig-parallel.out" "$$tmp/fig-cold.out"; \
	grep -q "store: 4 generated, 12 hits, 0 disk hits, 4 disk writes" "$$tmp/fig-cold.err"; \
	"$$tmp/dsafig" -cache-dir "$$tmp/cache" t1 t4 > "$$tmp/fig-warm.out" 2> "$$tmp/fig-warm.err"; \
	cat "$$tmp/fig-warm.err"; \
	cmp "$$tmp/fig-parallel.out" "$$tmp/fig-warm.out"; \
	grep -q "store: 0 generated, 12 hits, 4 disk hits, 0 disk writes" "$$tmp/fig-warm.err"; \
	"$$tmp/dsafig" -cache-dir "$$tmp/cache" -workers 2 -batch 4 t1 t4 > "$$tmp/fig-warm-dist.out"; \
	cmp "$$tmp/fig-parallel.out" "$$tmp/fig-warm-dist.out"; \
	echo "dist-smoke: workers, batched, and cached output byte-identical"

# Battery-level determinism check: whole sweeps running concurrently
# over one shared executor (-battery-parallel, plain and combined with
# -workers/-batch/-cache-dir) must be byte-identical to the serial
# battery; the store summaries must match the serial run's exactly
# (concurrent sweeps share the battery store — no duplicate
# generations for shared workloads); and a `dsatrace warm`ed cache
# directory must make the very first battery run against it regenerate
# nothing. A dsasim machine run is one sweep (its machines are the
# cells), so it must reject -battery-parallel. CI's dist-smoke job runs
# this with BATTERY_SMOKE_DIR set so the outputs can be uploaded as a
# debugging artifact on failure.
BATTERY_SMOKE_DIR ?=
battery-smoke:
	@set -e; \
	if [ -n "$(BATTERY_SMOKE_DIR)" ]; then tmp="$(BATTERY_SMOKE_DIR)"; mkdir -p "$$tmp"; \
	else tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; fi; \
	$(GO) build -o "$$tmp/dsasim" ./cmd/dsasim; \
	$(GO) build -o "$$tmp/dsafig" ./cmd/dsafig; \
	$(GO) build -o "$$tmp/dsatrace" ./cmd/dsatrace; \
	"$$tmp/dsafig" -progress > "$$tmp/fig-serial.out" 2> "$$tmp/fig-serial.err"; \
	"$$tmp/dsafig" -battery-parallel 4 -progress > "$$tmp/fig-bp.out" 2> "$$tmp/fig-bp.err"; \
	cmp "$$tmp/fig-serial.out" "$$tmp/fig-bp.out"; \
	grep '^dsafig: store:' "$$tmp/fig-serial.err" > "$$tmp/fig-serial.store"; \
	grep '^dsafig: store:' "$$tmp/fig-bp.err" > "$$tmp/fig-bp.store"; \
	cat "$$tmp/fig-bp.store"; \
	cmp "$$tmp/fig-serial.store" "$$tmp/fig-bp.store"; \
	"$$tmp/dsafig" -battery-parallel 4 -workers 2 -batch 4 -cache-dir "$$tmp/figcache" \
		> "$$tmp/fig-bp-dist.out" 2> "$$tmp/fig-bp-dist.err"; \
	cmp "$$tmp/fig-serial.out" "$$tmp/fig-bp-dist.out"; \
	grep -q "cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/fig-bp-dist.err"; \
	"$$tmp/dsasim" -machine all -workload segments > "$$tmp/sim-serial.out"; \
	if "$$tmp/dsasim" -machine all -battery-parallel 4 -workload segments > /dev/null 2> "$$tmp/sim-bp-flag.err"; then \
		echo "battery-smoke: dsasim -machine all accepted -battery-parallel 4"; exit 1; fi; \
	grep -q "is one sweep" "$$tmp/sim-bp-flag.err"; \
	"$$tmp/dsasim" -machine all -workload segments > "$$tmp/sim-bp.out"; \
	cmp "$$tmp/sim-serial.out" "$$tmp/sim-bp.out"; \
	"$$tmp/dsasim" -machine all -workers 2 -batch 2 -workload segments \
		> "$$tmp/sim-bp-dist.out" 2> "$$tmp/sim-bp-dist.err"; \
	cmp "$$tmp/sim-serial.out" "$$tmp/sim-bp-dist.out"; \
	grep -q "7 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/sim-bp-dist.err"; \
	"$$tmp/dsatrace" warm -cache-dir "$$tmp/warmcache" -machines -workload segments; \
	"$$tmp/dsasim" -machine all -cache-dir "$$tmp/warmcache" -workload segments \
		> "$$tmp/sim-warm.out" 2> "$$tmp/sim-warm.err"; \
	cat "$$tmp/sim-warm.err"; \
	cmp "$$tmp/sim-serial.out" "$$tmp/sim-warm.out"; \
	grep -q "store: 0 generated" "$$tmp/sim-warm.err"; \
	"$$tmp/dsatrace" warm -cache-dir "$$tmp/tracecache" -kinds workingset,loop -variants 2; \
	"$$tmp/dsatrace" batch -out "$$tmp/traces" -cache-dir "$$tmp/tracecache" -kinds workingset,loop -variants 2 \
		> /dev/null 2> "$$tmp/trace-warm.err"; \
	grep -q "store: 0 generated" "$$tmp/trace-warm.err"; \
	echo "battery-smoke: concurrent battery byte-identical, store shared, warmed cache replays everything"

# Declarative-sweep determinism check: the examples/scenarios/
# t2-mirror.toml file declares exactly the compiled-in t2 sweep, so
# `dsafig -scenario` must reproduce `dsafig t2` byte-for-byte —
# serially, under -parallel, across a real 2-process -workers pool
# (the stderr summary proves every cell crossed the wire), and via
# `dsasim run -scenario` (the second entry point into the same
# compiler). Then the cache contract: a `dsatrace warm -scenario`ed
# directory — covering all three example scenarios, the two new
# workload families included — must make the very first battery run
# against it regenerate nothing. CI's scenario-smoke job runs this
# with SCENARIO_SMOKE_DIR set so the outputs can be uploaded as a
# debugging artifact on failure.
SCENARIO_SMOKE_DIR ?=
scenario-smoke:
	@set -e; \
	if [ -n "$(SCENARIO_SMOKE_DIR)" ]; then tmp="$(SCENARIO_SMOKE_DIR)"; mkdir -p "$$tmp"; \
	else tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; fi; \
	$(GO) build -o "$$tmp/dsasim" ./cmd/dsasim; \
	$(GO) build -o "$$tmp/dsafig" ./cmd/dsafig; \
	$(GO) build -o "$$tmp/dsatrace" ./cmd/dsatrace; \
	mirror=examples/scenarios/t2-mirror.toml; \
	all="$$mirror,examples/scenarios/adversarial-frag.toml,examples/scenarios/phased-machines.toml"; \
	"$$tmp/dsafig" t2 > "$$tmp/t2-compiled.out"; \
	"$$tmp/dsafig" -scenario "$$mirror" > "$$tmp/t2-scenario.out"; \
	cmp "$$tmp/t2-compiled.out" "$$tmp/t2-scenario.out"; \
	"$$tmp/dsafig" -parallel 4 -scenario "$$mirror" > "$$tmp/t2-scenario-par.out"; \
	cmp "$$tmp/t2-compiled.out" "$$tmp/t2-scenario-par.out"; \
	"$$tmp/dsafig" -workers 2 -scenario "$$mirror" \
		> "$$tmp/t2-scenario-dist.out" 2> "$$tmp/t2-scenario-dist.err"; \
	cat "$$tmp/t2-scenario-dist.err"; \
	cmp "$$tmp/t2-compiled.out" "$$tmp/t2-scenario-dist.out"; \
	grep -q "18 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/t2-scenario-dist.err"; \
	"$$tmp/dsasim" run -scenario "$$mirror" > "$$tmp/t2-scenario-sim.out"; \
	cmp "$$tmp/t2-compiled.out" "$$tmp/t2-scenario-sim.out"; \
	"$$tmp/dsatrace" warm -cache-dir "$$tmp/scencache" -scenario "$$all"; \
	"$$tmp/dsafig" -cache-dir "$$tmp/scencache" -scenario "$$all" \
		> "$$tmp/scen-warm.out" 2> "$$tmp/scen-warm.err"; \
	cat "$$tmp/scen-warm.err"; \
	grep -q "store: 0 generated" "$$tmp/scen-warm.err"; \
	"$$tmp/dsafig" -workers 2 -cache-dir "$$tmp/scencache" -scenario "$$all" \
		> "$$tmp/scen-warm-dist.out" 2> "$$tmp/scen-warm-dist.err"; \
	cmp "$$tmp/scen-warm.out" "$$tmp/scen-warm-dist.out"; \
	echo "scenario-smoke: declarative t2 byte-identical everywhere; warmed scenarios regenerate nothing"

# Remote-transport determinism and fault-containment check: sweeps
# dialed through real localhost TCP serve-workers (two pool slots on
# one server, plain and under -battery-parallel, with an auth token)
# must be byte-identical to the serial runs with every cell remote —
# the stderr summary proves no silent local fallback — and the
# fault-injection suite (worker kill mid-batch, stalled link, corrupt
# frame, budget exhaustion) must hold under -race. CI's tcp-smoke job
# runs this with TCP_SMOKE_DIR set so the outputs can be uploaded as a
# debugging artifact on failure.
TCP_SMOKE_DIR ?=
tcp-smoke:
	@set -e; \
	if [ -n "$(TCP_SMOKE_DIR)" ]; then tmp="$(TCP_SMOKE_DIR)"; mkdir -p "$$tmp"; keep=1; \
	else tmp=$$(mktemp -d); keep=; fi; \
	pids=; \
	trap 'kill $$pids 2>/dev/null || true; [ -n "$$keep" ] || rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/dsasim" ./cmd/dsasim; \
	$(GO) build -o "$$tmp/dsafig" ./cmd/dsafig; \
	"$$tmp/dsasim" -machine all -workload segments > "$$tmp/sim-serial.out"; \
	"$$tmp/dsafig" t1 t4 > "$$tmp/fig-serial.out"; \
	"$$tmp/dsasim" serve-worker -listen 127.0.0.1:0 -addr-file "$$tmp/sim-worker.addr" -auth-token smoke \
		2> "$$tmp/sim-worker.err" & pids="$$!"; \
	"$$tmp/dsafig" serve-worker -listen 127.0.0.1:0 -addr-file "$$tmp/fig-worker.addr" -auth-token smoke \
		2> "$$tmp/fig-worker.err" & pids="$$pids $$!"; \
	for f in sim-worker.addr fig-worker.addr; do \
		i=0; while [ ! -s "$$tmp/$$f" ]; do \
			i=$$((i+1)); if [ $$i -gt 500 ]; then echo "tcp-smoke: $$f never appeared"; exit 1; fi; \
			sleep 0.02; done; \
	done; \
	simaddr=$$(cat "$$tmp/sim-worker.addr"); figaddr=$$(cat "$$tmp/fig-worker.addr"); \
	"$$tmp/dsasim" -machine all -remote "$$simaddr,$$simaddr" -auth-token smoke -workload segments \
		> "$$tmp/sim-tcp.out" 2> "$$tmp/sim-tcp.err"; \
	cat "$$tmp/sim-tcp.err"; \
	cmp "$$tmp/sim-serial.out" "$$tmp/sim-tcp.out"; \
	grep -q "7 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/sim-tcp.err"; \
	"$$tmp/dsafig" -remote "$$figaddr,$$figaddr" -auth-token smoke t1 t4 \
		> "$$tmp/fig-tcp.out" 2> "$$tmp/fig-tcp.err"; \
	cat "$$tmp/fig-tcp.err"; \
	cmp "$$tmp/fig-serial.out" "$$tmp/fig-tcp.out"; \
	grep -q "16 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/fig-tcp.err"; \
	"$$tmp/dsafig" -battery-parallel 4 -remote "$$figaddr,$$figaddr" -auth-token smoke -batch 4 t1 t4 \
		> "$$tmp/fig-tcp-bp.out" 2> "$$tmp/fig-tcp-bp.err"; \
	cmp "$$tmp/fig-serial.out" "$$tmp/fig-tcp-bp.out"; \
	grep -q "16 cells in 2 workers, 0 in-process, 0 crashes" "$$tmp/fig-tcp-bp.err"; \
	$(GO) test -race -count=1 -run 'TCP|Fault|Frame|RemoteLocal' ./internal/engine/dist; \
	echo "tcp-smoke: remote TCP output byte-identical; fault-injection suite green under -race"

# Sweep-service determinism check: a `dsasim serve` daemon's streamed
# output must be byte-identical to the serial CLI for both a registry
# sweep (t2) and an uploaded scenario file (the PR 8 compiler as API
# payload), and re-fetching a completed result by its content-addressed
# key must regenerate nothing — the daemon's /stats (job counters plus
# the store summary) is captured before and after the fetch and must
# not change by a byte. CI's serve-smoke job runs this with
# SERVE_SMOKE_DIR set so the outputs can be uploaded as a debugging
# artifact on failure.
SERVE_SMOKE_DIR ?=
serve-smoke:
	@set -e; \
	if [ -n "$(SERVE_SMOKE_DIR)" ]; then tmp="$(SERVE_SMOKE_DIR)"; mkdir -p "$$tmp"; keep=1; \
	else tmp=$$(mktemp -d); keep=; fi; \
	pids=; \
	trap 'kill $$pids 2>/dev/null || true; [ -n "$$keep" ] || rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/dsasim" ./cmd/dsasim; \
	$(GO) build -o "$$tmp/dsafig" ./cmd/dsafig; \
	$(GO) build -o "$$tmp/dsabench" ./cmd/dsabench; \
	mirror=examples/scenarios/t2-mirror.toml; \
	"$$tmp/dsafig" t2 > "$$tmp/cli-t2.out"; \
	"$$tmp/dsafig" -scenario "$$mirror" > "$$tmp/cli-mirror.out"; \
	"$$tmp/dsasim" serve -listen 127.0.0.1:0 -addr-file "$$tmp/serve.addr" -cache-dir "$$tmp/cache" \
		2> "$$tmp/serve.err" & pids="$$!"; \
	i=0; while [ ! -s "$$tmp/serve.addr" ]; do \
		i=$$((i+1)); if [ $$i -gt 500 ]; then echo "serve-smoke: serve.addr never appeared"; exit 1; fi; \
		sleep 0.02; done; \
	addr=$$(cat "$$tmp/serve.addr"); \
	"$$tmp/dsabench" submit -url "http://$$addr" -experiments t2 -key-file "$$tmp/t2.key" \
		> "$$tmp/served-t2.out"; \
	cmp "$$tmp/cli-t2.out" "$$tmp/served-t2.out"; \
	"$$tmp/dsabench" submit -url "http://$$addr" -scenario-file "$$mirror" > "$$tmp/served-mirror.out"; \
	cmp "$$tmp/cli-mirror.out" "$$tmp/served-mirror.out"; \
	"$$tmp/dsabench" stats -url "http://$$addr" > "$$tmp/stats-before.json"; \
	"$$tmp/dsabench" fetch -url "http://$$addr" -key "$$(cat "$$tmp/t2.key")" > "$$tmp/fetched-t2.out"; \
	cmp "$$tmp/cli-t2.out" "$$tmp/fetched-t2.out"; \
	"$$tmp/dsabench" stats -url "http://$$addr" > "$$tmp/stats-after.json"; \
	cat "$$tmp/stats-after.json"; \
	cmp "$$tmp/stats-before.json" "$$tmp/stats-after.json"; \
	grep -q '"store":"6 generated' "$$tmp/stats-after.json"; \
	kill -TERM $$pids; wait $$pids; pids=; \
	grep -q '^dsasim: store:' "$$tmp/serve.err"; \
	echo "serve-smoke: served streams byte-identical to the CLI; fetch-by-key regenerated nothing"

# Sweep-service load check: a burst of concurrent submissions against a
# deliberately tiny cell budget must come back all 2xx/429 (back-
# pressure, never errors) with sane latency percentiles, the daemon
# must drain cleanly on SIGTERM (exit 0), and the in-process half —
# TestServeLoadNoGoroutineLeak — must show the goroutine count
# returning to baseline after shutdown. CI's serve-smoke job runs this
# with LOAD_SMOKE_DIR set for failure artifacts.
LOAD_SMOKE_DIR ?=
load-smoke:
	@set -e; \
	if [ -n "$(LOAD_SMOKE_DIR)" ]; then tmp="$(LOAD_SMOKE_DIR)"; mkdir -p "$$tmp"; keep=1; \
	else tmp=$$(mktemp -d); keep=; fi; \
	pids=; \
	trap 'kill $$pids 2>/dev/null || true; [ -n "$$keep" ] || rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/dsasim" ./cmd/dsasim; \
	$(GO) build -o "$$tmp/dsabench" ./cmd/dsabench; \
	"$$tmp/dsasim" serve -listen 127.0.0.1:0 -addr-file "$$tmp/serve.addr" -parallel 2 \
		2> "$$tmp/serve.err" & pids="$$!"; \
	i=0; while [ ! -s "$$tmp/serve.addr" ]; do \
		i=$$((i+1)); if [ $$i -gt 500 ]; then echo "load-smoke: serve.addr never appeared"; exit 1; fi; \
		sleep 0.02; done; \
	addr=$$(cat "$$tmp/serve.addr"); \
	"$$tmp/dsabench" load -url "http://$$addr" -n 220 -c 60 -experiments t1 | tee "$$tmp/load.out"; \
	kill -TERM $$pids; wait $$pids; pids=; \
	grep -q '^dsasim: serve: shutting down' "$$tmp/serve.err"; \
	$(GO) test -count=1 -run 'TestServeLoadNoGoroutineLeak' -v ./internal/serve | tail -3; \
	echo "load-smoke: 2xx/429 only under load; clean SIGTERM drain; no goroutine leak"
