// Package unroll implements the paper's selective loop unrolling
// (Figure 6): schedule the original loop; if the result is bus-limited,
// estimate — without scheduling — whether unrolling by the cluster count
// would let the communications fit inside the unrolled loop's minimum
// initiation interval, and only then unroll and reschedule.
//
// The estimate mirrors the paper's closed form.  Scheduling one
// iteration copy per cluster turns every loop-carried true dependence
// whose distance is not a multiple of the unroll factor into a
// cross-cluster communication, once per copy:
//
//	comneeded = NDepsNotMult(G) * U
//	cycneeded = ceil(comneeded / nbuses) * latbus
//
// and unrolling pays off when cycneeded fits into the unrolled loop's
// MinII (computable directly from the unrolled graph, no schedule
// needed).
package unroll

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Decision records why the selective algorithm did or did not unroll.
type Decision struct {
	// Unrolled reports whether the unrolled schedule was chosen.
	Unrolled bool
	// Factor is the unroll factor used (1 when not unrolled).
	Factor int
	// BusLimited is the LimitedByBus test on the original schedule.
	BusLimited bool
	// ComNeeded is the estimated communications per unrolled kernel.
	ComNeeded int
	// CycNeeded is the estimated bus cycles those communications need.
	CycNeeded int
	// UnrolledMinII is the unrolled loop's scheduling lower bound.
	UnrolledMinII int
	// FailReason explains why an unrolled schedule was abandoned after
	// the estimate (or the strategy) asked for one: the reschedule
	// failure in Selective, or the UnrollAll fallback in the compile
	// pipeline.  Empty when nothing went wrong.
	FailReason string
}

// String explains the decision.
func (d Decision) String() string {
	var suffix string
	if d.FailReason != "" {
		suffix = fmt.Sprintf(" [%s]", d.FailReason)
	}
	if !d.BusLimited {
		return "no unroll: schedule not limited by buses" + suffix
	}
	if !d.Unrolled {
		if d.FailReason != "" {
			return fmt.Sprintf("no unroll: estimate passed (%d comms, %d bus cycles <= unrolled MinII %d) but%s",
				d.ComNeeded, d.CycNeeded, d.UnrolledMinII, suffix)
		}
		return fmt.Sprintf("no unroll: %d comms need %d bus cycles > unrolled MinII %d",
			d.ComNeeded, d.CycNeeded, d.UnrolledMinII)
	}
	return fmt.Sprintf("unroll x%d: %d comms need %d bus cycles <= unrolled MinII %d",
		d.Factor, d.ComNeeded, d.CycNeeded, d.UnrolledMinII) + suffix
}

// Result bundles the chosen schedule with the decision trail.  The
// schedule's Graph is the unrolled graph when Decision.Unrolled.
type Result struct {
	Schedule *sched.Schedule
	Decision Decision
}

// scheduleFn is the scheduler entry point; tests swap it to inject
// failures into the unrolled-reschedule path.
var scheduleFn = sched.ScheduleGraph

// ScheduleFunc schedules one graph; SelectiveFunc is parameterised
// over it so any scheduler engine (BSA, the two-phase baseline, an
// engine-registry adapter) can drive the same Figure 6 decision logic.
type ScheduleFunc func(*ddg.Graph) (*sched.Schedule, error)

// Selective runs Figure 6 of the paper with the unified scheduler
// (sched.ScheduleGraph): LimitedByBus check, closed-form estimate, and
// the conditional unrolled reschedule.  The unroll factor is the
// cluster count (the scheduler spreads one iteration copy per
// cluster).
func Selective(g *ddg.Graph, cfg *machine.Config, opts *sched.Options) (*Result, error) {
	return SelectiveFunc(g, cfg, func(gg *ddg.Graph) (*sched.Schedule, error) {
		return scheduleFn(gg, cfg, opts)
	})
}

// SelectiveFunc is Selective over an arbitrary scheduler: the single
// home of the Figure 6 decision logic, shared by the direct library
// entry point above and by the engine registry's "selective" policy.
func SelectiveFunc(g *ddg.Graph, cfg *machine.Config, schedule ScheduleFunc) (*Result, error) {
	s, err := schedule(g)
	if err != nil {
		return nil, err
	}
	dec := Decision{Factor: 1, BusLimited: s.BusLimited}
	if !cfg.Clustered() || !s.BusLimited {
		return &Result{Schedule: s, Decision: dec}, nil
	}

	u := cfg.NClusters
	dec.ComNeeded = g.DepsNotMultiple(u) * u
	unrolled := g.Unroll(u)
	dec.UnrolledMinII = unrolled.MinII(cfg)
	dec.CycNeeded = ceilDiv(dec.ComNeeded, cfg.NBuses) * cfg.BusLatency
	if dec.CycNeeded > dec.UnrolledMinII {
		return &Result{Schedule: s, Decision: dec}, nil
	}

	s2, err := schedule(unrolled)
	if err != nil {
		// The estimate said yes but the full schedule failed (rare: e.g.
		// register pressure).  Keep the original schedule, and keep the
		// reason — a Decision that cannot explain why unrolling was
		// abandoned reads exactly like one that never tried.
		dec.FailReason = fmt.Sprintf("unrolled reschedule failed: %v", err)
		return &Result{Schedule: s, Decision: dec}, nil
	}
	dec.Unrolled = true
	dec.Factor = u
	return &Result{Schedule: s2, Decision: dec}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
