package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/regpress"
)

// Placement records where and when one operation executes.
type Placement struct {
	// Node is the DDG node ID.
	Node int
	// Cluster is the executing cluster.
	Cluster int
	// FU is the unit index within the cluster's FUs of the node's class.
	FU int
	// Cycle is the flat schedule time (>= 0 after normalisation).  The
	// kernel slot is Cycle mod II and the stage is Cycle / II.
	Cycle int
}

// Transfer is one inter-cluster communication: the producer's value is
// written to a bus at Start and latched by the destination cluster's
// incoming-value register at Start+BusLatency.  The bus is busy for the
// entire [Start, Start+BusLatency) window (paper §3).
type Transfer struct {
	// Producer is the node whose value is communicated.
	Producer int
	// From and To are the source and destination clusters.
	From, To int
	// Bus is the bus index used.
	Bus int
	// Start is the flat cycle the transaction begins.
	Start int
}

// FailCause classifies why a scheduling attempt at some II failed.
type FailCause int

// Failure causes, in the priority order used when several clusters fail
// differently for the same node.
const (
	// CauseNone means the attempt succeeded.
	CauseNone FailCause = iota
	// CauseFU: every candidate had no free functional-unit slot.
	CauseFU
	// CauseReg: a placement existed but register pressure overflowed.
	CauseReg
	// CauseComm: a placement existed but its communications could not be
	// routed over the buses — the signal the selective unroller keys on.
	CauseComm
	// CauseCancelled: the attempt was abandoned mid-flight because a
	// lower II already succeeded (parallel II race).  Never recorded in
	// failure telemetry — a cancelled attempt proves nothing about its II.
	CauseCancelled
)

// String names the cause.
func (c FailCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseFU:
		return "fu"
	case CauseReg:
		return "reg"
	case CauseComm:
		return "comm"
	case CauseCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("FailCause(%d)", int(c))
	}
}

// Schedule is a complete modulo schedule.
type Schedule struct {
	// Graph is the scheduled dependence graph.
	Graph *ddg.Graph
	// Cfg is the target machine.
	Cfg machine.Config
	// II is the achieved initiation interval.
	II int
	// MinII is the lower bound max(ResMII, RecMII) for this graph/machine.
	MinII int
	// BusLimited reports that at least one lower II was abandoned because
	// communications could not be routed (Figure 6's LimitedByBus test).
	BusLimited bool
	// Causes counts the abandoned attempts by failure cause.
	Causes map[FailCause]int
	// Placements holds one entry per node, indexed by node ID.
	Placements []Placement
	// Transfers lists every inter-cluster communication.
	Transfers []Transfer
}

// SC returns the stage count: the number of kernel copies overlapped in
// flight, which sets prologue/epilogue length.  Bus transactions count
// toward the span because their kernel slots must exist in some stage.
func (s *Schedule) SC() int {
	max := 0
	for _, p := range s.Placements {
		if p.Cycle > max {
			max = p.Cycle
		}
	}
	for _, t := range s.Transfers {
		if end := t.Start + s.Cfg.BusLatency - 1; end > max {
			max = end
		}
	}
	return max/s.II + 1
}

// Length returns the flat span of the schedule in cycles.
func (s *Schedule) Length() int {
	max := 0
	for _, p := range s.Placements {
		if p.Cycle > max {
			max = p.Cycle
		}
	}
	return max + 1
}

// ClusterOf returns the cluster executing node n.
func (s *Schedule) ClusterOf(n int) int { return s.Placements[n].Cluster }

// CycleOf returns node n's flat schedule time.
func (s *Schedule) CycleOf(n int) int { return s.Placements[n].Cycle }

// StageOf returns node n's pipeline stage (cycle / II).
func (s *Schedule) StageOf(n int) int { return s.Placements[n].Cycle / s.II }

// NumComms returns the number of inter-cluster communications per kernel
// iteration.
func (s *Schedule) NumComms() int { return len(s.Transfers) }

// Cycles returns the total execution time of the loop for the given
// number of kernel iterations, using the paper's model (perfect memory):
//
//	NCYCLES = (NITER + SC - 1) * II
func (s *Schedule) Cycles(kernelIters int) int {
	return (kernelIters + s.SC() - 1) * s.II
}

// MaxLive returns the register requirement of each cluster.
func (s *Schedule) MaxLive() []int {
	lts := s.Lifetimes()
	out := make([]int, s.Cfg.NClusters)
	for c := range out {
		out[c] = regpress.MaxLive(lts[c], s.II)
	}
	return out
}

// Lifetimes returns the value live ranges per cluster, in flat time: a
// producer's value lives in its own cluster from issue until its last
// local read or last bus write, and in each consuming cluster from bus
// arrival until the last local read there (values consumed directly at
// arrival live in the IRV and need no register).
func (s *Schedule) Lifetimes() [][]regpress.Lifetime {
	out := make([][]regpress.Lifetime, s.Cfg.NClusters)
	at, byProd := s.transfersByProducer()
	for _, n := range s.Graph.Nodes() {
		if !n.Class.ProducesValue() {
			continue
		}
		p := s.Placements[n.ID]
		end := p.Cycle + 1
		for _, e := range s.Graph.OutEdges(n.ID) {
			if e.Kind != ddg.DepTrue {
				continue
			}
			m := s.Placements[e.To]
			if m.Cluster != p.Cluster {
				continue
			}
			if r := m.Cycle + s.II*e.Distance + 1; r > end {
				end = r
			}
		}
		for _, ti := range byProd[at[n.ID]:at[n.ID+1]] {
			if r := s.Transfers[ti].Start + 1; r > end {
				end = r
			}
		}
		out[p.Cluster] = append(out[p.Cluster], regpress.Lifetime{Start: p.Cycle, End: end})

		// Consumer-side lifetimes per destination cluster.
		for _, ti := range byProd[at[n.ID]:at[n.ID+1]] {
			t := s.Transfers[ti]
			arrival := t.Start + s.Cfg.BusLatency
			last := arrival
			for _, e := range s.Graph.OutEdges(n.ID) {
				if e.Kind != ddg.DepTrue {
					continue
				}
				m := s.Placements[e.To]
				if m.Cluster != t.To {
					continue
				}
				read := m.Cycle + s.II*e.Distance
				// Only reads served by this transfer (arrival <= read).
				if read >= arrival && read+1 > last {
					last = read + 1
				}
			}
			if last > arrival+1 {
				out[t.To] = append(out[t.To], regpress.Lifetime{Start: arrival, End: last})
			}
		}
	}
	return out
}

// transfersByProducer groups the transfer indices by producer, in
// transfer order: node p's transfers are s.Transfers[i] for i in
// byProd[at[p]:at[p+1]].  It is a counting sort over one allocation; a
// transfer whose producer is not a node is left out, as no node's
// lifetime can use it.
func (s *Schedule) transfersByProducer() (at, byProd []int32) {
	n := s.Graph.NumNodes()
	buf := make([]int32, n+2+len(s.Transfers))
	at, byProd = buf[:n+2], buf[n+2:]
	for _, t := range s.Transfers {
		if t.Producer >= 0 && t.Producer < n {
			at[t.Producer+2]++
		}
	}
	for p := 2; p < n+2; p++ {
		at[p] += at[p-1]
	}
	// at[p+1] now indexes node p's first slot; filling advances it to
	// node p+1's first, which leaves at[p] at node p's first.
	for i, t := range s.Transfers {
		if t.Producer >= 0 && t.Producer < n {
			byProd[at[t.Producer+1]] = int32(i)
			at[t.Producer+1]++
		}
	}
	return at[:n+1], byProd[:at[n]]
}

// String renders the kernel as a reservation-table dump, one row per
// kernel slot, listing the operations (with stage superscripts) and bus
// transactions.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s on %s: II=%d SC=%d comms=%d buslimited=%v\n",
		s.Graph.Name, s.Cfg.Name, s.II, s.SC(), len(s.Transfers), s.BusLimited)
	rows := make([][]string, s.II)
	for _, p := range s.Placements {
		n := s.Graph.Node(p.Node)
		rows[p.Cycle%s.II] = append(rows[p.Cycle%s.II],
			fmt.Sprintf("c%d.%s:%s@%d", p.Cluster, n.Class.FU(), n.Name, p.Cycle/s.II))
	}
	for _, t := range s.Transfers {
		slot := ((t.Start % s.II) + s.II) % s.II
		rows[slot] = append(rows[slot],
			fmt.Sprintf("bus%d:%s(c%d->c%d)", t.Bus, s.Graph.Node(t.Producer).Name, t.From, t.To))
	}
	for slot, ops := range rows {
		sort.Strings(ops)
		fmt.Fprintf(&b, "  [%2d] %s\n", slot, strings.Join(ops, "  "))
	}
	return b.String()
}
