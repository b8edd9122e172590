#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. This is the command BENCHMARK.json names: everything it
# writes — Go's build cache, the binary, the traced run's Chrome traces —
# lands in .bench_build/ at the root of the checkout and nowhere else.
#
#   bash benchmark/run.sh --workload soc_tw_aligned --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

# The commit goes into every result file's environment block. A checkout
# that is not a git repository records "unknown"; git must not wander
# above the checkout looking for one.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse --short HEAD 2>/dev/null || echo unknown)"

export GOCACHE="$build/go-cache"
export GOFLAGS=-buildvcs=false
go build -ldflags "-X main.commit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
