#!/usr/bin/env bash
# Builds bench/asvperf from source and runs it with the given arguments.
# Everything the build writes — the binary and Go's build cache — stays in
# .bench_build/ at the root of the checkout, so a run touches nothing
# outside it. exec replaces the shell: the only process left is asvperf.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/asvperf" ./asvperf
exec "$root/.bench_build/asvperf" "$@"
