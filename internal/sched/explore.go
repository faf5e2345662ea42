package sched

import (
	"repro/internal/ddg"
	"repro/internal/machine"
)

// This file exposes the scheduler's incremental attempt state to
// exhaustive searchers (internal/exact).  An Attempt is exactly one
// runAttempt in progress — the same modulo reservation table, bus
// planner, window computation and register check BSA uses — but driven
// from outside: the caller enumerates every feasible placement of a
// node, commits one, recurses, and rolls back.  The enumeration is
// BSA's own probe: Choices runs tryCycles, the per-cluster cycle scan
// runAttempt makes, in its collect mode, so every placement BSA can
// choose is one of the choices and any schedule BSA can reach is inside
// an exhaustive search over Attempt placements; that containment is
// what lets internal/exact prove IIs infeasible.
//
// The register check behind Choices is the incremental per-cluster
// pressure table: each speculative place/check/unplace costs O(lifetime
// length), not a full O(V+E) recompute — the difference between the
// branch-and-bound oracle's millions of expansions being dominated by
// bookkeeping or by actual search.

// Attempt is one in-progress scheduling attempt at a fixed II, open for
// external search.  It is not safe for concurrent use.
type Attempt struct {
	st *state
}

// NewAttempt starts an empty attempt for g on cfg at the given II.  The
// caller is responsible for having validated g and cfg (exact.Schedule
// does it once per run, not once per II).
func NewAttempt(g *ddg.Graph, cfg *machine.Config, ii int) *Attempt {
	return &Attempt{st: newState(g, cfg, ii)}
}

// Reset rewinds the attempt to empty at a new II, reusing every
// internal buffer (reservation tables, pressure tables, transfer and
// undo logs).  An II sweep should allocate one Attempt and Reset it per
// II rather than constructing a fresh one.
//
//vliw:allocfree
func (a *Attempt) Reset(ii int) { a.st.reset(ii) }

// II returns the attempt's initiation interval.
//
//vliw:allocfree
func (a *Attempt) II() int { return a.st.ii }

// MaxLive returns cluster c's current peak register pressure, read from
// the incrementally maintained table (O(II) scan, no recompute).
//
//vliw:allocfree
func (a *Attempt) MaxLive(c int) int { return a.st.press[c].Max() }

// Fits reports whether every cluster's register file currently holds
// its MaxLive — O(NClusters), the same check Choices applies to every
// enumerated placement.
//
//vliw:allocfree
func (a *Attempt) Fits() bool { return a.st.fits() }

// Choice is one feasible (cluster, cycle, communication-plan) placement
// for a node, valid for Place until the attempt state changes.
type Choice struct {
	// Cluster and Cycle locate the placement.
	Cluster, Cycle int

	res tryResult
}

// Choices appends every feasible placement of node n in the current
// state to out and returns the extended slice: the node's scan state is
// computed once (fillCycles) and each cluster's cycle run is scanned by
// tryCycles in collect mode — the same probe BSA makes, communication
// template, window pre-check and register skip included — keeping every
// fit instead of the first.  Choices come cluster by cluster, in scan
// order within a cluster.  The enumeration leaves the state untouched;
// a searcher that passes one reused buffer per depth (out[:0]) makes
// only the choices' plan copies allocate.
func (a *Attempt) Choices(n int, out []Choice) []Choice {
	a.st.fillCycles(n)
	for c := 0; c < a.st.cfg.NClusters; c++ {
		a.st.tryCycles(n, c, &out)
	}
	return out
}

// Place commits a choice previously returned by Choices for node n.
// The attempt state must be identical to what it was at enumeration
// time (the depth-first discipline guarantees it), or Place panics on a
// no-longer-free bus slot.
//
//vliw:allocfree
func (a *Attempt) Place(n int, ch Choice) {
	a.st.commit(n, ch.Cluster, ch.res)
}

// Unplace exactly reverses Place.
//
//vliw:allocfree
func (a *Attempt) Unplace(n int, ch Choice) {
	a.st.unplace(n, ch.res.plan)
}

// Schedule freezes a complete attempt (every node placed) into a
// normalised Schedule.  MinII, BusLimited and Causes are left for the
// caller: an exhaustive search has no heuristic failure telemetry.
func (a *Attempt) Schedule() *Schedule {
	return buildSchedule(a.st, *a.st.cfg)
}

// SequentialBound returns an II safely large enough to schedule any
// loop (one operation at a time, full latencies, one bus transfer per
// edge) — the same automatic MaxII cap ScheduleGraph uses, exported so
// exhaustive searchers sweep the identical range.
func SequentialBound(g *ddg.Graph, cfg *machine.Config) int {
	return sequentialBound(g, cfg)
}
