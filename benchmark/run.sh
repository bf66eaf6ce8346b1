#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload table1-det --seed 1 --seconds 25 --trace 0
#
# The benchmark is its own Go module (benchmark/go.mod) that builds against
# the repository through a replace directive. The build cache, the binary
# and the toolchain's own state live in .bench_build/, so nothing outside
# the checkout is written; the first run compiles everything, later runs
# reuse the cache.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config HOME=$out/home \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
# Telemetry off: otherwise the go command may leave an upload process
# running after it exits.
[ -f "$out/config/go/telemetry/mode" ] || go telemetry off
(cd "$root/benchmark" && go build -o "$out/obfuslock-bench" .)
exec "$out/obfuslock-bench" "$@"
