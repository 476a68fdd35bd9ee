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
#   make cache-smoke   - key the run cache by the binary's Go build ID:
#                        the same binary and a byte copy of it warm-start,
#                        a -trimpath build re-runs, and a build without an
#                        ID warm-starts off its own whole-file hash (runs
#                        inside make test)
#   make dist-smoke    - coordinate a small plan with `cubie dist` and two
#                        `cubie work` processes, diff the output bitwise
#                        against the single-process render, then warm-start
#                        a fresh worker off the shared store and require
#                        zero workload executions (runs inside make test)
#
# The repository benchmark is bench/run.sh (see bench/README.md); the
# go test -bench functions remain developer probes.

GO ?= go

.PHONY: all build vet fmt-check test fuzz race race-quick bench-check docs-check serve-smoke \
	cache-smoke dist-smoke clean

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "fmt-check: not gofmt-clean (gofmt -w them):" >&2; echo "$$out" >&2; exit 1; }

docs-check:
	$(GO) run ./cmd/docscheck

test: vet fmt-check docs-check bench-check serve-smoke cache-smoke dist-smoke race-quick
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

# Run-cache identity smoke, one `cubie run GEMV` (one execution cold,
# ~20 ms) per step on one cache directory, counted by
# cubie_harness_runs_started_total: the first run fills the cache; the same
# binary and a byte copy of it at another path then execute nothing, since
# the fingerprint is the build ID's content hash and not the path; a
# -trimpath build (other bytes, another ID) executes again; and a build
# with no build ID (-ldflags=-buildid=) falls back to hashing the whole
# file, so it fills once and then warm-starts off its own entries.
cache-smoke:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/cubie ./cmd/cubie; \
	$(GO) build -trimpath -o $$tmp/trimpath ./cmd/cubie; \
	$(GO) build -ldflags=-buildid= -o $$tmp/noid ./cmd/cubie; \
	mkdir $$tmp/copy; cp $$tmp/cubie $$tmp/copy/cubie; \
	expect() { \
	  rm -f $$tmp/m.prom; \
	  CUBIE_CACHE=$$tmp/cache $$2 run --metrics $$tmp/m.prom GEMV > /dev/null \
	      || { echo "cache-smoke: $$1: cubie run failed" >&2; exit 1; }; \
	  got=$$(sed -n 's/^cubie_harness_runs_started_total //p' $$tmp/m.prom); \
	  [ "$$got" = "$$3" ] || { echo "cache-smoke: $$1 executed '$$got' runs, want $$3" >&2; exit 1; }; }; \
	expect "cold fill" $$tmp/cubie 1; \
	expect "same binary" $$tmp/cubie 0; \
	expect "byte copy at another path" $$tmp/copy/cubie 0; \
	expect "-trimpath build" $$tmp/trimpath 1; \
	expect "build without an ID, cold" $$tmp/noid 1; \
	expect "build without an ID, warm" $$tmp/noid 0; \
	echo "cache-smoke: ok (same binary and byte copy warm, -trimpath build re-ran, no-ID build warm off its own fill)"

# End-to-end distributed-campaign smoke in the cross-host shape: a
# coordinator on a random port (the --addr-file handshake) and `cubie work`
# processes, each with its own empty cache and the coordinator as its
# remote tier. Phase 1 renders figure9 single-process with no cache (the
# comparator). Phase 2 drains the same plan with two cold workers
# publishing into the coordinator's store and requires bitwise-identical
# stdout. Phase 3 re-coordinates against the warm store with one fresh
# worker and requires the worker's own metrics to show zero workload
# executions — the whole plan arrives over the remote cache tier. A worker
# or coordinator that exits non-zero fails the smoke; the exit trap stops
# whatever is still running.
dist-smoke:
	@set -e; tmp=$$(mktemp -d); pids=; trap 'kill $$pids 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/cubie ./cmd/cubie; \
	CUBIE_CACHE=off $$tmp/cubie roofline > $$tmp/single.txt; \
	fail() { echo "dist-smoke: $$1" >&2; tail -n 20 $$tmp/*.log >&2; exit 1; }; \
	coordinate() { \
	  CUBIE_CACHE=$$tmp/store $$tmp/cubie dist --plan figure9 --figure figure9 --lease-timeout 2m \
	      --addr 127.0.0.1:0 --addr-file $$tmp/$$1.addr > $$tmp/$$1.txt 2> $$tmp/$$1.log & \
	  coord=$$!; pids="$$pids $$coord"; \
	  for i in $$(seq 1 100); do [ -s $$tmp/$$1.addr ] && break; sleep 0.1; done; \
	  [ -s $$tmp/$$1.addr ] || fail "$$1 coordinator never wrote its addr file"; \
	  url=http://$$(cat $$tmp/$$1.addr); workers=; }; \
	work() { \
	  id=$$1; shift; mkdir $$tmp/$$id; \
	  CUBIE_CACHE=$$tmp/$$id $$tmp/cubie work --coordinator $$url --worker-id $$id "$$@" \
	      > $$tmp/$$id.log 2>&1 & \
	  pids="$$pids $$!"; workers="$$workers $$!"; }; \
	settle() { \
	  while [ -n "$$workers" ]; do \
	    left=; for p in $$workers; do \
	      if kill -0 $$p 2>/dev/null; then left="$$left $$p"; \
	      else wait $$p || fail "$$1: a worker exited non-zero"; fi; \
	    done; workers=$$left; sleep 0.1; \
	  done; \
	  wait $$coord || fail "$$1: coordinator exited non-zero"; \
	  cmp $$tmp/single.txt $$tmp/$$1.txt || fail "$$1 output differs from single-process"; }; \
	coordinate cold; work w1; work w2; settle cold; \
	coordinate warm; work w3 --metrics $$tmp/w3.prom; settle warm; \
	grep -q '^cubie_harness_runs_started_total 0$$' $$tmp/w3.prom \
	    || fail "fresh worker executed runs instead of warm-starting off the store: $$(grep '^cubie_harness_runs_started_total' $$tmp/w3.prom)"; \
	echo "dist-smoke: ok (cold 2-worker and warm fresh-worker output both bitwise-identical, warm worker ran 0 workloads)"

race:
	$(GO) test -race ./...

# go test fuzzes one target per invocation, so each Fuzz* function found in
# the module's test files (bench/ is its own module) runs on its own. New
# interesting inputs are minimized for at most 1 s: at the 60-s default a
# 10-s run spends most of its time minimizing, with no new executions.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=bench \
	    --exclude-dir=.bench_build --exclude-dir=.git '^func Fuzz' .); do \
	  for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
	    echo "fuzz: $$t in $$(dirname $$f)"; \
	    $(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=10s -fuzzminimizetime=1s $$(dirname $$f); \
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
RACE_QUICK_HARNESS = ^(TestRunSingleflight|TestRunRetriesAfterError|TestMemoOneFlightWithoutCache|TestWorkQueueDrainsToDone|TestWorkQueueDismissesEveryWorker)$$
RACE_QUICK_SPARSE = ^TestSynthesizeSharedConcurrent$$

race-quick:
	$(GO) test -race $(RACE_QUICK)
	$(GO) test -race -run '$(RACE_QUICK_HARNESS)' ./internal/harness
	$(GO) test -race -run '$(RACE_QUICK_SPARSE)' ./internal/sparse

clean:
	$(GO) clean ./...
