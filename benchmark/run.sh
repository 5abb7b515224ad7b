#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the build
# and the run write stays inside the checkout: the Go build cache and the
# binaries under .bench_build/, traces and records under benchmark/out/.
#
#   bash benchmark/run.sh --workload form-64 --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh            # all four workloads; see README.md
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
# The toolchain's own scratch stays inside too: build cache, link-time
# temporaries, and its config/telemetry directory (so a `go env -w` setting
# of the user's does not reach these builds; the repository needs none).
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
mkdir -p "$root/.bench_build/bin" "$GOTMPDIR"
go build -C benchmark -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
