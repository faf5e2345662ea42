// Package assign implements the two-phase baseline the paper compares
// against: Nystrom & Eichenberger's cluster assignment for modulo
// scheduling (MICRO-31, 1998), followed by a scheduling phase with the
// clusters fixed.  When either phase fails the whole algorithm restarts
// with an incremented initiation interval, exactly as they describe.
//
// The assignment walks the nodes in criticality order and greedily
// joins each to the cluster holding most of its neighbours, subject to a
// load cap that avoids aggressively filling a cluster beyond what its
// functional units can issue in II cycles — the two concerns their paper
// highlights (loop-carried dependences and over-filled clusters).
// Because the phase never sees the partial schedule, it cannot react to
// bus pressure, which is precisely the weakness the paper's Figure 4
// exposes as buses get scarcer or slower.
package assign

import (
	"errors"
	"fmt"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Options tunes the baseline.
type Options struct {
	// MaxII caps the II search; 0 derives a bound from the graph.
	MaxII int
	// FillFactor scales the per-cluster load cap: a cluster may hold at
	// most FillFactor * FUs * II operations of each class.  1.0 is the
	// hardware bound; Nystrom & Eichenberger found values near 1 harmful
	// ("the negative impact of aggressively filling clusters"), so the
	// default leaves slack.
	FillFactor float64
}

// NystromEichenberger schedules g on cfg with the two-phase scheme and
// returns the resulting schedule.  The returned schedule's BusLimited
// flag and cause histogram aggregate every abandoned II.
func NystromEichenberger(g *ddg.Graph, cfg *machine.Config, opts *Options) (*sched.Schedule, error) {
	if opts == nil {
		opts = &Options{}
	}
	fill := opts.FillFactor
	if fill == 0 {
		fill = 0.8
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("assign: %s: empty graph", g.Name)
	}

	ord := sched.SMSOrder(g)
	// As in BSA, a MinII raised to the bus-latency floor (ddg.BusMII)
	// means lower IIs were abandoned for the bus without being attempted;
	// keep the LimitedByBus signal alive.
	minII, busFloored := g.MinIIFloored(cfg)
	maxII := opts.MaxII
	if maxII == 0 {
		maxII = minII + seqBound(g, cfg)
	}

	causes := map[sched.FailCause]int{}
	for ii := minII; ii <= maxII; ii++ {
		assignment := clusterAssignment(g, cfg, ord, ii, fill)
		s, err := sched.ScheduleGraph(g, cfg, &sched.Options{
			Assignment: assignment,
			ForceII:    ii,
		})
		if err == nil {
			s.MinII = minII
			s.BusLimited = causes[sched.CauseComm] > 0 || busFloored
			s.Causes = causes
			return s, nil
		}
		var serr *sched.Error
		if !errors.As(err, &serr) {
			return nil, err
		}
		for c, n := range serr.Causes {
			causes[c] += n
		}
	}
	return nil, &sched.Error{Graph: g.Name, Machine: cfg.Name, MinII: minII, MaxII: maxII,
		Causes: causes, LastNode: -1}
}

func seqBound(g *ddg.Graph, cfg *machine.Config) int {
	sum := g.NumNodes()
	for _, e := range g.Edges() {
		sum += e.Latency
	}
	if cfg.Clustered() {
		sum += cfg.BusLatency * (g.NumEdges() + 1)
	}
	return sum + 8
}

// clusterAssignment is phase one: a greedy affinity/load partition of
// the nodes for a target II.  It is deliberately schedule-blind.
func clusterAssignment(g *ddg.Graph, cfg *machine.Config, ord []int, ii int, fill float64) []int {
	n := g.NumNodes()
	assigned := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	// load[c][class] = ops of class already assigned to c.
	load := make([][machine.NumFUClasses]int, cfg.NClusters)
	total := make([]int, cfg.NClusters)

	cap := func(c int, class machine.FUClass) int {
		hw := float64(cfg.FUs(c, class) * ii)
		lim := int(hw * fill)
		if lim < 1 {
			lim = 1
		}
		return lim
	}

	rr := 0
	for _, v := range ord {
		class := g.Node(v).Class.FU()
		bestC, bestAff, bestLoad := -1, -1, 0
		for c := 0; c < cfg.NClusters; c++ {
			if load[c][class] >= cap(c, class) {
				continue
			}
			aff := affinity(g, assigned, v, c)
			if aff > bestAff || (aff == bestAff && total[c] < bestLoad) {
				bestC, bestAff, bestLoad = c, aff, total[c]
			}
		}
		if bestC == -1 {
			// Every cluster is at its cap: fall back to the least loaded in
			// the class (the schedule phase will fail and bump the II if
			// this is truly infeasible).
			bestC = 0
			for c := 1; c < cfg.NClusters; c++ {
				if load[c][class] < load[bestC][class] {
					bestC = c
				}
			}
		}
		if bestAff <= 0 && cfg.NClusters > 1 {
			// No neighbours anywhere yet: spread round-robin for balance.
			if !anyNeighborAssigned(g, assigned, v) {
				bestC = rr % cfg.NClusters
				if load[bestC][class] >= cap(bestC, class) {
					bestC = leastLoaded(load, class)
				}
				rr++
			}
		}
		assigned[v] = bestC
		load[bestC][class]++
		total[bestC]++
	}
	return assigned
}

// affinity counts v's true-dependence neighbours already assigned to c,
// weighting loop-carried neighbours double: a cross-cluster loop-carried
// dependence costs a communication on the recurrence path, which
// directly stretches the II (Nystrom & Eichenberger's first concern).
func affinity(g *ddg.Graph, assigned []int, v, c int) int {
	aff := 0
	count := func(other, dist int) {
		if other == v || assigned[other] != c {
			return
		}
		if dist > 0 {
			aff += 2
		} else {
			aff++
		}
	}
	for _, e := range g.InEdges(v) {
		if e.Kind == ddg.DepTrue {
			count(e.From, e.Distance)
		}
	}
	for _, e := range g.OutEdges(v) {
		if e.Kind == ddg.DepTrue {
			count(e.To, e.Distance)
		}
	}
	return aff
}

func anyNeighborAssigned(g *ddg.Graph, assigned []int, v int) bool {
	for _, e := range g.InEdges(v) {
		if e.From != v && assigned[e.From] >= 0 {
			return true
		}
	}
	for _, e := range g.OutEdges(v) {
		if e.To != v && assigned[e.To] >= 0 {
			return true
		}
	}
	return false
}

func leastLoaded(load [][machine.NumFUClasses]int, class machine.FUClass) int {
	best := 0
	for c := 1; c < len(load); c++ {
		if load[c][class] < load[best][class] {
			best = c
		}
	}
	return best
}
