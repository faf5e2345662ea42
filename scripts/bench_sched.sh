#!/bin/sh
# bench_sched.sh — run the scheduler benchmark suite and emit the
# BENCH_sched.json perf-trajectory artefact (plus BENCH_sched.txt, the
# raw `go test -bench` output, for benchstat).
#
# Environment:
#   COUNT      repetitions per benchmark (default 3; CI smoke uses 1)
#   BENCHTIME  passed to -benchtime when set (e.g. 100x for a smoke run)
#
# The checked-in scripts/bench_baseline_pr5.txt is the pre-bitset-MRT
# baseline of BenchmarkSchedule* (scripts/bench_baseline_pr3.txt keeps
# the older pre-incremental-pressure one); benchjson joins it so the
# JSON records the speedup ratios the PR is judged by.
set -e
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
BENCHTIME_FLAG=""
[ -n "${BENCHTIME}" ] && BENCHTIME_FLAG="-benchtime=${BENCHTIME}"

# Each run appends to the file directly (no pipeline: a `... | tee`
# would swallow a failing benchmark's exit status and let CI publish an
# incomplete artifact as success).
: > BENCH_sched.txt
go test -run '^$' -bench 'BenchmarkSchedule' -benchmem -count "${COUNT}" ${BENCHTIME_FLAG} . >> BENCH_sched.txt
go test -run '^$' -bench '.' -benchmem -count 1 ${BENCHTIME_FLAG} ./internal/sched ./internal/exact ./internal/regpress >> BENCH_sched.txt
cat BENCH_sched.txt

# -require makes a renamed or silently skipped benchmark a hard failure
# instead of an artefact that quietly stops tracking it.
REQUIRED="BenchmarkScheduleBSA4Cluster,BenchmarkScheduleBSAUnified,BenchmarkTryCommitAttempt/4-cluster/B1/L1,BenchmarkPlaceUnplace,BenchmarkBSALargeII/tomcatv.loop7x4,BenchmarkBSALargeII/fpppp.loop3x4,BenchmarkBSALargeII/mgrid.loop4x4,BenchmarkValidate"
go run ./cmd/benchjson -baseline scripts/bench_baseline_pr5.txt -require "${REQUIRED}" < BENCH_sched.txt > BENCH_sched.json

# -check re-validates the emitted artefact against benchjson's own
# output schema (strict decode, metadata, every entry actually ran),
# so a truncated or hand-edited BENCH_sched.json can't ship.
go run ./cmd/benchjson -check BENCH_sched.json -require "${REQUIRED}"
echo "wrote BENCH_sched.json ($(wc -c < BENCH_sched.json) bytes)" >&2
