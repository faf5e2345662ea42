#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from this checkout's
# sources, then runs it.  Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and log stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin" "${build}/gocache" "${build}/tmp" "${build}/config" "${build}/run"

export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config" # the go command keeps its telemetry counters here
export GOMODCACHE="${build}/gomod"
export GOFLAGS="-buildvcs=false"
export GOPROXY=off
export GOTOOLCHAIN=local

go -C perfbench build -o "${build}/bin/perfbench" . >&2
go -C perfbench build -o "${build}/bin/schedd" repro/cmd/schedd >&2
go -C perfbench build -o "${build}/bin/schedrouter" repro/cmd/schedrouter >&2

exec "${build}/bin/perfbench" -bin "${build}/bin" -workdir "${build}/run" "$@"
