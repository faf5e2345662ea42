package sched

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// Validate independently re-checks every constraint of a finished
// schedule, sharing no code with the scheduler's incremental checks:
//
//  1. every node has a placement with a valid cluster and FU index,
//     and no (cluster, class, slot) exceeds its FU count;
//  2. no bus slot carries two transfers, and no transfer needs more
//     slots than the II provides;
//  3. every dependence holds: t(to) + II*dist >= t(from) + latency, and
//     every cross-cluster true dependence is served by a transfer that
//     leaves after the producer finishes and arrives before the consumer
//     issues (iteration-aligned);
//  4. every transfer's producer lives in the transfer's source cluster,
//     and its destination is a cluster of the machine;
//  5. register pressure fits every cluster's file.
//
// Experiments run it on every schedule they produce.
func Validate(s *Schedule) error {
	g, cfg := s.Graph, s.Cfg
	if len(s.Placements) != g.NumNodes() {
		return fmt.Errorf("validate: %d placements for %d nodes", len(s.Placements), g.NumNodes())
	}
	if s.II < 1 {
		return fmt.Errorf("validate: II = %d", s.II)
	}

	// 1. Placements and FU capacity: a bitmask of busy units per
	// (cluster, FU class, slot), each `words` uint64s wide so that the
	// machine's widest class fits, in one flat table.
	words := 1
	for c := 0; c < cfg.NClusters; c++ {
		for class := machine.FUClass(0); class < machine.NumFUClasses; class++ {
			words = max(words, (cfg.FUs(c, class)+63)/64)
		}
	}
	fuBusy := make([]uint64, cfg.NClusters*int(machine.NumFUClasses)*s.II*words)
	for id, p := range s.Placements {
		if p.Node != id {
			return fmt.Errorf("validate: placement %d labelled node %d", id, p.Node)
		}
		if p.Cluster < 0 || p.Cluster >= cfg.NClusters {
			return fmt.Errorf("validate: node %d on cluster %d of %d", id, p.Cluster, cfg.NClusters)
		}
		if p.Cycle < 0 {
			return fmt.Errorf("validate: node %d at negative cycle %d", id, p.Cycle)
		}
		class := g.Node(id).Class.FU()
		if p.FU < 0 || p.FU >= cfg.FUs(p.Cluster, class) {
			return fmt.Errorf("validate: node %d on %s unit %d of %d",
				id, class, p.FU, cfg.FUs(p.Cluster, class))
		}
		slot := p.Cycle % s.II
		w := ((p.Cluster*int(machine.NumFUClasses)+int(class))*s.II+slot)*words + p.FU/64
		bit := uint64(1) << (p.FU % 64)
		if fuBusy[w]&bit != 0 {
			return fmt.Errorf("validate: cluster %d %s unit %d slot %d double-booked",
				p.Cluster, class, p.FU, slot)
		}
		fuBusy[w] |= bit
	}

	// 2. Bus capacity: busBusy[bus*II+slot] is 1 + the index of the
	// transfer holding that slot, 0 when it is free.
	var busBusy []int32
	if len(s.Transfers) > 0 {
		busBusy = make([]int32, cfg.NBuses*s.II)
	}
	for i, t := range s.Transfers {
		if t.Bus < 0 || t.Bus >= cfg.NBuses {
			return fmt.Errorf("validate: transfer %d on bus %d of %d", i, t.Bus, cfg.NBuses)
		}
		if cfg.BusLatency > s.II {
			return fmt.Errorf("validate: bus latency %d exceeds II %d", cfg.BusLatency, s.II)
		}
		for k := 0; k < cfg.BusLatency; k++ {
			slot := mod(t.Start+k, s.II)
			if prev := busBusy[t.Bus*s.II+slot]; prev != 0 {
				return fmt.Errorf("validate: bus %d slot %d carries transfers %d and %d",
					t.Bus, slot, prev-1, i)
			}
			busBusy[t.Bus*s.II+slot] = int32(i + 1)
		}
	}

	// 3. Dependences.
	for _, e := range g.Edges() {
		tf, tt := s.Placements[e.From].Cycle, s.Placements[e.To].Cycle
		if tt+s.II*e.Distance < tf+e.Latency {
			return fmt.Errorf("validate: edge %s->%s (lat %d, dist %d) violated: %d vs %d",
				g.Node(e.From).Name, g.Node(e.To).Name, e.Latency, e.Distance,
				tt+s.II*e.Distance, tf+e.Latency)
		}
		if e.Kind != ddg.DepTrue {
			continue
		}
		cf, ct := s.Placements[e.From].Cluster, s.Placements[e.To].Cluster
		if cf == ct {
			continue
		}
		if !servedByTransfer(s, e, tf, tt, ct) {
			return fmt.Errorf("validate: cross-cluster dependence %s(c%d)->%s(c%d) has no timely transfer",
				g.Node(e.From).Name, cf, g.Node(e.To).Name, ct)
		}
	}

	// 4. Transfer endpoints.
	for i, t := range s.Transfers {
		if t.Producer < 0 || t.Producer >= g.NumNodes() {
			return fmt.Errorf("validate: transfer %d has bad producer %d", i, t.Producer)
		}
		p := s.Placements[t.Producer]
		if p.Cluster != t.From {
			return fmt.Errorf("validate: transfer %d leaves cluster %d but producer %s is on %d",
				i, t.From, g.Node(t.Producer).Name, p.Cluster)
		}
		if t.Start < p.Cycle+g.Node(t.Producer).Class.Latency() {
			return fmt.Errorf("validate: transfer %d starts at %d before producer %s finishes at %d",
				i, t.Start, g.Node(t.Producer).Name, p.Cycle+g.Node(t.Producer).Class.Latency())
		}
		if t.To < 0 || t.To >= cfg.NClusters {
			return fmt.Errorf("validate: transfer %d goes to cluster %d of %d", i, t.To, cfg.NClusters)
		}
	}

	// 5. Registers.
	for c, live := range s.MaxLive() {
		if live > cfg.RegsPerCluster {
			return fmt.Errorf("validate: cluster %d needs %d registers, has %d",
				c, live, cfg.RegsPerCluster)
		}
	}
	return nil
}

// servedByTransfer checks that some transfer of the producer's value to
// the consumer's cluster leaves at/after production and arrives at/
// before the consumption, with iteration alignment: the consumer reads
// the value produced Distance iterations earlier, i.e. at flat time
// t(to) + II*Distance in the producer's frame.
func servedByTransfer(s *Schedule, e *ddg.Edge, tf, tt, toCluster int) bool {
	prodReady := tf + e.Latency
	consume := tt + s.II*e.Distance
	for _, t := range s.Transfers {
		if t.Producer != e.From || t.To != toCluster {
			continue
		}
		if t.Start >= prodReady && t.Start+s.Cfg.BusLatency <= consume {
			return true
		}
	}
	return false
}

func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}
