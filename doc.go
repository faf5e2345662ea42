// Package repro reproduces "The Effectiveness of Loop Unrolling for
// Modulo Scheduling in Clustered VLIW Architectures" (Sánchez &
// González, ICPP 2000) as a Go library.
//
// The implementation lives under internal/: package core is the front
// door, a thin facade over internal/engine — the pluggable compilation
// engine — and bench_test.go in this directory regenerates every table
// and figure of the paper's evaluation as testing.B benchmarks.  See
// README.md for a tour and DESIGN.md for the system inventory.
//
// internal/engine keys every scheduler (bsa, ne, exact) and unroll
// policy (no_unroll, unroll_all, selective, portfolio, sweep:<k>) by
// registered name in an open registry: adding one is a single file
// implementing SchedulerEngine or UnrollPolicy plus one Register call
// in its init, and the name is immediately accepted by core.Compile,
// keyed by the pipeline cache, served by POST /v1/compile and listed
// by GET /v1/capabilities.  Every compilation is threaded through a
// staged CompileContext (analyze → unroll decision → schedule →
// validate) that records per-stage wall time, the II-search trajectory
// and attempt counts into Result.Stages — the wire format's optional
// "stages" block.  The portfolio policy races no_unroll, unroll_all
// and selective on a bounded worker group and returns the best
// per-iteration II, cancelling candidates whose per-iteration lower
// bound (MinII of the unrolled graph over the factor, compared in
// exact rational arithmetic with order tie-breaks) provably cannot
// win, so the race's outcome is deterministic and cacheable.
//
// All batch compilation flows through internal/pipeline, a concurrent
// subsystem pairing a sharded, singleflight-deduplicated compile cache
// with a bounded worker pool: each (loop, machine, options) key is
// compiled exactly once per pipeline, batches fan out across
// GOMAXPROCS workers with deterministic result ordering, and a Stats
// snapshot reports hits, misses, dedup joins, unroll fallbacks and
// timing.  The experiments drivers prime the pipeline with each
// figure's whole compilation grid before building rows; compiling the
// full corpus under any registered policy is cmd/experiments
// -strategies, and one loop is cmd/vliwsched <loop.ir|bench.loopN>.
//
// The pipeline is also served over HTTP: cmd/schedd (internal/service)
// fronts it with POST /v1/compile, a streaming NDJSON POST /v1/batch,
// GET /v1/stats, /healthz and /debug/vars, speaking the versioned JSON
// wire format of internal/wire (loops as full dependence graphs or
// corpus references, Table 1 machine references or inline
// configurations, options by stable name).  The service layer adds a
// byte-bounded LRU over the compile cache, per-request deadlines,
// admission control with bounded queueing, and graceful drain; cache
// keys are content fingerprints (ddg.Graph.Fingerprint), so identical
// loops deduplicate across requests.  Golden fixtures under
// internal/wire/testdata pin the wire format byte for byte.
//
// internal/exact is the optimality oracle: a branch-and-bound modulo
// scheduler built on the production scheduler's own attempt state
// (sched.Attempt — same reservation table, bus planner, register check
// and placement windows), sweeping IIs from MinII upward and proving
// minimality when its node/step budget holds.  Since every BSA
// placement is one path of the exhaustive search, a proved exact II is
// a hard lower bound on BSA's — the differential tests in
// internal/sched assert it on every sample graph, fuzz seed and small
// corpus loop, and experiments.OptGapTable (cmd/experiments -run
// optgap) reports the per-benchmark optimality gap across the Table 1
// machines.
//
// # Performance
//
// The scheduler's inner loop is incremental and allocation-free.
// Register pressure is not recomputed per candidate: each cluster
// carries a regpress.Table — a modulo-slot pressure histogram with an
// over-capacity counter — updated in place/unplace with exactly the
// lifetime segments a placement creates (the node's own value,
// extensions of already-placed producers, bus-transfer holds), every
// mutation recorded in an undo log so a speculative
// place/check/unplace costs O(lifetime length) and the fits check is
// O(1) per cluster.  One attempt state is allocated per scheduling run
// and recycled across the whole II search (epoch-based placement
// flags, reservation tables resized in place, scratch buffers reused),
// so BenchmarkTryCommitAttempt reports 0 allocs/op; the exact oracle
// Resets one shared sched.Attempt per II and rides the same tables for
// each of its expansions.  The invariant behind all of this — the
// incremental tables always equal regpress.Pressure over lifetimes
// rebuilt from scratch — is enforced by sched.DebugPressureChecks
// inside the fuzzer and the differential tests.
//
// The perf trajectory is recorded in BENCH_sched.json, regenerated by
// scripts/bench_sched.sh (raw output in BENCH_sched.txt, pre-refactor
// baseline in scripts/bench_baseline_pr3.txt).  To profile a hot path:
//
//	go test -run '^$' -bench BenchmarkTryCommitAttempt -cpuprofile cpu.out ./internal/sched
//	go tool pprof -top cpu.out
package repro
