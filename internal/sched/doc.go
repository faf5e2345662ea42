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
//     bus and per (cluster, FU class) for any II <= 64 and ceil(II/64)
//     words above.  The paper grid's successful schedules reach II 88
//     (unrolled bodies) and its failed unrolled searches run IIs up to
//     1710, so the multi-word rows are a hot path too.  A bus-transfer window
//     of BusLatency consecutive modulo slots, including its wrap past
//     II-1, is a single masked AND in one word; finding the first
//     feasible transfer start (busScan) builds a free-start bitmap —
//     by rotation within the one word, or one 64-slot word at a time
//     above — and takes TrailingZeros instead of probing slot by slot.
//     The differential tests drive both regimes against a per-slot
//     scalar oracle (mrt_scalar_test.go).
//
//   - BSA probes a node's clusters in descending profit order and stops
//     once no unprobed cluster can change the pick: a profit depends
//     only on placed neighbours, so after the first roomy candidate of
//     profit P, clusters of lower profit are skipped (runAttempt).  A
//     node that fits nowhere still probes every cluster, so the II
//     search, its failure causes and every schedule are those of the
//     full scan; under DebugPressureChecks each pick is re-made over the
//     full candidate set (checkEarlyStop).
//
//   - A candidate cycle that fails only its register check also proves
//     the cycles after it fail, up to the next change of the transfers
//     to plan, when the lifetime segments that persist along the scan
//     already overflow (tryCycles, regSkip): a failed attempt's cost
//     stops growing with the 2·II+L-cycle scans of the node that jams.
//
//   - Validate, which every compile runs once on its result, checks FU
//     capacity with a bitmask of busy units per (cluster, FU class,
//     slot) and bus capacity with a transfer index per (bus, slot), both
//     in flat tables, and Lifetimes groups transfers by producer with a
//     counting sort; FuzzValidate holds both to the map-based versions
//     kept in validate_test.go.
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
