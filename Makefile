# Build/test entry points for the Cubie reproduction.
#
#   make test          - vet + fmt-check + docs-check + race-quick + unit
#                        tests (tier-1 gate)
#   make race          - full test suite under the race detector
#   make fuzz          - run every Fuzz* target in the repo for 10 s each
#                        (not part of make test)
#   make race-quick    - the race detector on the packages that finish in
#                        seconds under it (par, runcache, server, mmu, gemm,
#                        gemv, spmv), on the harness's flight and work
#                        queue tests, and on sparse's shared-synthesis
#                        cache; spgemm and the rest of harness stay in
#                        make race (runs inside make test)
#   make bench         - kernel + harness benchmarks with memory stats,
#                        archived as benchdata/BENCH_<date>.json (see
#                        docs/PERFORMANCE.md); set BENCHTIME=100ms for a
#                        quick smoke pass
#   make bench-compare - diff two benchmark snapshots and fail on >10%
#                        ns/op or allocs/op regressions (0 → >0 allocs
#                        always fails):
#                        make bench-compare OLD=benchdata/BENCH_pre_prestage.json \
#                                           NEW=benchdata/BENCH_post_prestage.json
#                        Rolling-baseline mode diffs NEW against the best-of
#                        envelope of the last K committed snapshots instead:
#                        make bench-compare ROLLING=3 NEW=benchdata/BENCH_new.json
#   make bench-trend   - render every committed benchdata/BENCH_*.json into
#                        the static dashboard benchdata/trend.html
#   make bench-trend-check - fail if trend.html is missing or stale against
#                        the committed snapshots (runs inside make test)
#   make bench-all     - time cold and warm `cubie all` end to end against a
#                        fresh run cache and archive the wall-clocks as
#                        benchdata/BENCHALL_<date>.json; gate with
#                        make bench-compare OLD=benchdata/BENCHALL_pre_sched.json \
#                                           NEW=benchdata/BENCHALL_<date>.json
#   make build         - compile everything
#   make vet           - static analysis only
#   make fmt-check     - fail if any Go file is not gofmt-clean (runs
#                        inside make test)
#   make bench-check   - compile and self-test the separate bench/ module
#                        (`cd bench && go test ./...`), which the root
#                        `go test ./...` never builds (runs inside make test)
#   make docs-check    - verify docs/README references (flags, make targets,
#                        CUBIE_* env vars, serve API routes and config keys)
#                        against the code, both directions for the serve API
#   make serve-smoke   - boot `cubie serve` on a random port, probe
#                        /healthz, fetch a figure, scrape /metrics, then
#                        SIGTERM and verify a clean drain (runs inside
#                        make test)
#   make dist-smoke    - run a small plan through `cubie dist` with two
#                        forked workers, diff the output bitwise against
#                        the single-process render, then warm-start a
#                        fresh worker off the shared store and require
#                        zero workload executions (runs inside make test)
#   make bench-dist    - time cold 1-worker vs cold 4-worker `cubie all`
#                        plus a cross-worker warm pass and archive the
#                        wall-clocks as benchdata/BENCHALL_<date>.json

GO ?= go

# Per-benchmark measurement time for make bench. The default 1s matches go
# test's own default; BENCHTIME=100ms gives a fast smoke signal, BENCHTIME=5x
# runs a fixed iteration count for noisy boxes.
BENCHTIME ?= 1s

# Snapshots diffed by make bench-compare, and the regression fractions that
# fail the gate (0.10 = 10%) on each axis. Setting ROLLING=K switches the
# baseline from the OLD file to the best-of envelope of the last K committed
# benchdata/BENCH_*.json snapshots.
OLD ?= benchdata/BENCH_pre_prestage.json
NEW ?= benchdata/BENCH_post_prestage.json
TOLERANCE ?= 0.10
ALLOC_TOLERANCE ?= 0.10
ROLLING ?=

.PHONY: all build vet fmt-check test fuzz race race-quick bench bench-all bench-check bench-compare \
	bench-trend bench-trend-check docs-check serve-smoke dist-smoke bench-dist \
	clean

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "fmt-check: not gofmt-clean (gofmt -w them):" >&2; echo "$$out" >&2; exit 1; }

docs-check:
	$(GO) run ./cmd/docscheck

test: vet fmt-check docs-check bench-trend-check bench-check serve-smoke dist-smoke race-quick
	$(GO) test ./...

# bench/ is its own module (replace repro => ../) that calls internal
# packages such as sparse.Corpus; the root module's test run never
# compiles it, so an API change there would only surface in the benchmark.
bench-check:
	cd bench && $(GO) test ./...

# End-to-end daemon smoke: boot on a random port (the --addr-file
# handshake), probe liveness, fetch one run-free figure, check the server's
# own metrics are exposed, then SIGTERM and require a clean graceful exit.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/cubie ./cmd/cubie; \
	CUBIE_CACHE=off $$tmp/cubie serve --addr 127.0.0.1:0 --addr-file $$tmp/addr & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "serve-smoke: daemon never wrote addr file" >&2; kill $$pid; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	curl -sf http://$$addr/healthz | grep -q '"ok"'; \
	curl -sf http://$$addr/api/v1/figures/specs | grep -q H200; \
	curl -sf http://$$addr/metrics | grep -q cubie_http_requests_total; \
	kill -TERM $$pid; wait $$pid; \
	echo "serve-smoke: ok ($$addr booted, served, drained)"

# End-to-end distributed-campaign smoke. Phase 1 renders figure9
# single-process with no cache (the comparator). Phase 2 coordinates the
# same plan across two cold forked workers publishing into a shared store
# and requires bitwise-identical stdout. Phase 3 re-coordinates against
# the warm store with one fresh worker (empty local cache) and requires
# the worker's own metrics to show zero workload executions — the whole
# plan arrives over the remote cache tier.
dist-smoke:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/cubie ./cmd/cubie; \
	CUBIE_CACHE=off $$tmp/cubie roofline > $$tmp/single.txt; \
	CUBIE_CACHE=$$tmp/store $$tmp/cubie dist --plan figure9 --figure figure9 \
	    --workers 2 --lease-timeout 2m > $$tmp/cold.txt 2> $$tmp/cold.log \
	    || { cat $$tmp/cold.log >&2; exit 1; }; \
	cmp $$tmp/single.txt $$tmp/cold.txt \
	    || { echo "dist-smoke: 2-worker output differs from single-process" >&2; exit 1; }; \
	mkdir -p $$tmp/wm; \
	CUBIE_CACHE=$$tmp/store $$tmp/cubie dist --plan figure9 --figure figure9 \
	    --workers 1 --worker-metrics $$tmp/wm --lease-timeout 2m \
	    > $$tmp/warm.txt 2> $$tmp/warm.log \
	    || { cat $$tmp/warm.log >&2; exit 1; }; \
	cmp $$tmp/single.txt $$tmp/warm.txt \
	    || { echo "dist-smoke: warm worker output differs from single-process" >&2; exit 1; }; \
	grep -q '^cubie_harness_runs_started_total 0$$' $$tmp/wm/w1.prom \
	    || { echo "dist-smoke: fresh worker executed runs instead of warm-starting off the store:" >&2; \
	         grep '^cubie_harness_runs_started_total' $$tmp/wm/w1.prom >&2; exit 1; }; \
	echo "dist-smoke: ok (cold 2-worker and warm fresh-worker output both bitwise-identical, warm worker ran 0 workloads)"

race:
	$(GO) test -race ./...

# go test fuzzes one target per invocation, so each Fuzz* function found in
# the module's test files (bench/ is its own module) runs on its own.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=bench \
	    --exclude-dir=.bench_build --exclude-dir=.git '^func Fuzz' .); do \
	  for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
	    echo "fuzz: $$t in $$(dirname $$f)"; \
	    $(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=10s $$(dirname $$f); \
	  done; \
	done

# The fast half of make race: about 20 s together on 2 vCPUs, plus the
# harness tests that drive its flight table and work queue concurrently,
# and the concurrent requesters of sparse's shared-synthesis cache, the
# package's one concurrent code path.
# spgemm (~25 s) and the whole harness (~290 s) under -race only run in
# make race.
RACE_QUICK = ./internal/par ./internal/runcache ./internal/server/... ./internal/mmu \
	./internal/kernels/gemm ./internal/kernels/gemv ./internal/kernels/spmv
RACE_QUICK_HARNESS = ^(TestRunSingleflight|TestRunRetriesAfterError|TestMemoOneFlightWithoutCache|TestWorkQueueDrainsToDone)$$
RACE_QUICK_SPARSE = ^TestSynthesizeSharedConcurrent$$

race-quick:
	$(GO) test -race $(RACE_QUICK)
	$(GO) test -race -run '$(RACE_QUICK_HARNESS)' ./internal/harness
	$(GO) test -race -run '$(RACE_QUICK_SPARSE)' ./internal/sparse

# -p 1 runs the package test binaries serially: concurrent binaries contend
# for cores and distort ns/op (macro benchmarks inflate 2-3x).
bench:
	$(GO) test -p 1 -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson

bench-compare:
ifneq ($(ROLLING),)
	$(GO) run ./cmd/benchjson -compare -rolling $(ROLLING) \
		-tolerance $(TOLERANCE) -alloc-tolerance $(ALLOC_TOLERANCE) $(NEW)
else
	$(GO) run ./cmd/benchjson -compare \
		-tolerance $(TOLERANCE) -alloc-tolerance $(ALLOC_TOLERANCE) $(OLD) $(NEW)
endif

# The dashboard is committed alongside the snapshots it plots;
# bench-trend-check keeps the two in lockstep (make test runs it).
bench-trend:
	$(GO) run ./cmd/benchjson -trend

bench-trend-check:
	$(GO) run ./cmd/benchjson -trend -check

# End-to-end campaign wall-clock: the first `cubie all` populates a fresh
# run cache (cold), the second replays it (warm — zero workload
# executions). Both land in one BENCHALL_<date>.json snapshot for the
# bench-compare gate.
bench-all:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/cubie ./cmd/cubie; \
	{ $(GO) run ./cmd/benchjson -exec BenchmarkCubieAllCold -- \
	    env CUBIE_CACHE=$$tmp/cache $$tmp/cubie all; \
	  $(GO) run ./cmd/benchjson -exec BenchmarkCubieAllWarm -- \
	    env CUBIE_CACHE=$$tmp/cache $$tmp/cubie all; } \
	| $(GO) run ./cmd/benchjson -o benchdata -prefix BENCHALL_

# Distributed campaign wall-clock: cold `cubie all` on 1 forked worker vs
# 4, then a cross-worker warm pass (fresh worker, warm shared store).
# Each pass gets its own fresh store so colds stay cold.
bench-dist:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/cubie ./cmd/cubie; \
	{ $(GO) run ./cmd/benchjson -exec BenchmarkCubieAllDist1Cold -- \
	    env CUBIE_CACHE=$$tmp/store1 $$tmp/cubie all --workers 1; \
	  $(GO) run ./cmd/benchjson -exec BenchmarkCubieAllDist4Cold -- \
	    env CUBIE_CACHE=$$tmp/store4 $$tmp/cubie all --workers 4; \
	  $(GO) run ./cmd/benchjson -exec BenchmarkCubieAllDistWarm -- \
	    env CUBIE_CACHE=$$tmp/store4 $$tmp/cubie all --workers 1; } \
	| $(GO) run ./cmd/benchjson -o benchdata -prefix BENCHALL_

clean:
	$(GO) clean ./...
