#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the checkout root: the Go build cache, the binary and the span files
# a traced run writes.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -root "$root" -out "$out" "$@"
