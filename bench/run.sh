#!/usr/bin/env bash
# Builds the benchmark and primepard from this checkout into .bench_build,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload cold-table2 --seed 1 --seconds 25 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build, and the
# toolchain never reaches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$out/bench" . && go build -o "$out/primepard" repro/cmd/primepard)
exec "$out/bench" "$@"
