// Package sched implements the paper's core contribution: modulo
// scheduling for clustered VLIW machines with a *unified
// assign-and-schedule* strategy (BSA, Figure 5).  Cluster selection and
// cycle/FU placement happen in one pass over the SMS node order; cluster
// candidates are ranked by the out-edge profit; inter-cluster
// communications are placed on shared buses modelled as reservation-table
// resources that stay busy for the whole bus latency.
//
// The same machinery schedules the unified machine (one cluster, no
// buses) and, via FixedAssignment, the two-phase Nystrom & Eichenberger
// baseline in package assign.
//
// # Performance
//
// The scheduler's inner loop is allocation-free in the steady state
// (BenchmarkTryCommitAttempt and BenchmarkPlaceUnplace report
// 0 allocs/op) and its reservation tables are packed bitsets:
//
//   - The modulo reservation table (mrt.go) keeps one uint64 word per
//     bus and per (cluster, FU class) for any II <= 64 — the practical
//     range; Table 1 machines schedule at II <= ~30.  A bus-transfer
//     window of BusLatency consecutive modulo slots, including its wrap
//     past II-1, is a single masked AND; finding the first feasible
//     transfer start is a rotate-and-TrailingZeros scan (busScan)
//     instead of a per-slot probing loop.  Giant IIs fall back to a
//     multi-word path that the differential tests drive against a
//     per-slot scalar oracle (mrt_scalar_test.go).
//
//   - All per-attempt state lives in flat arenas sized once per
//     ScheduleGraph call and recycled across the II search via
//     epoch-stamped resets (state.go); communication feasibility is
//     projected per node into per-cluster windows and satisfaction
//     thresholds (buildNodeTpl) before the cycle scan runs.
//
// # Parallel II search
//
// Options.Parallel > 1 races independent II candidates on separate
// goroutines (parallel.go).  The race is deterministic: workers claim
// the exact candidate sequence the serial search would scan, in order;
// the winner is the lowest-index feasible II; and an in-flight attempt
// is cancelled only when a lower index has already succeeded, so every
// index below the winner runs to completion and the failure telemetry
// (Causes, BusLimited) is summed over exactly those indices.  The
// result — II, placements, transfers, telemetry — is bit-identical to
// the serial search's; the tests sweep the trimmed corpus across every
// Table 1 machine to enforce this.  Worker count is capped at
// GOMAXPROCS, so a single-processor run degrades to the serial loop.
package sched
