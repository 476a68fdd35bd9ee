#!/usr/bin/env bash
# Builds and runs the repository benchmark from a checkout:
#
#   bash bench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# Go's build cache, module cache, temp files and both built binaries stay
# under .bench_build/ in the checkout, so a run reads and writes nowhere
# else. Without the repository's sources next to bench/ the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
