#!/usr/bin/env bash
# Builds warr-perf from the checkout this script sits in and runs it from
# the checkout root. Every build and run artefact stays in .bench_build/.
#
#   bash benchmark/run.sh --workload replay --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/warr-perf" .)
cd "$root"
exec "$out/warr-perf" "$@"
