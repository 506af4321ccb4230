#!/usr/bin/env bash
# Runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
#
# Go's build cache, module cache, configuration (and with it telemetry) and
# temporary files stay inside the checkout (.bench_build/), so a run writes
# nothing outside it.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR"
cd "$root/perfbench"
exec go run . -root "$root" "$@"
