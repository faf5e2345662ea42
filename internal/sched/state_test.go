package sched

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// White-box tests for the scheduler's window computation, cycle-scan
// policy and profit metric — the pieces Figure 5's behaviour hangs on.

func newTestState(g *ddg.Graph, cfg machine.Config, ii int) *state {
	return newState(g, &cfg, ii)
}

func TestWindowFromScheduledPred(t *testing.T) {
	g := ddg.New("w")
	a := g.AddNode("a", machine.OpLoad) // lat 2
	b := g.AddNode("b", machine.OpFAdd)
	g.AddTrueDep(a.ID, b.ID, 0)
	st := newTestState(g, machine.TwoCluster(1, 1), 4)
	st.place(a.ID, 0, 5, nil)
	w := st.windowOf(b.ID)
	if !w.hasEarly || w.early != 7 { // 5 + load latency
		t.Errorf("early = %d (%v), want 7", w.early, w.hasEarly)
	}
	if w.hasLate {
		t.Error("unexpected late bound")
	}
	if !w.anchoredEarly {
		t.Error("distance-0 pred must anchor the window")
	}
}

func TestWindowLoopCarriedIsUnanchored(t *testing.T) {
	g := ddg.New("w2")
	a := g.AddNode("a", machine.OpIAdd)
	b := g.AddNode("b", machine.OpIAdd)
	g.AddTrueDep(a.ID, b.ID, 3) // loop-carried only
	st := newTestState(g, machine.TwoCluster(1, 1), 10)
	st.place(a.ID, 0, 0, nil)
	w := st.windowOf(b.ID)
	if !w.hasEarly || w.early != 1-30 { // 0 + 1 - 3*10
		t.Errorf("early = %d, want -29", w.early)
	}
	if w.anchoredEarly {
		t.Error("distance-3 pred must not anchor")
	}
	// The scan must clamp to the base instead of starting at -29.
	if r := st.runOf(w); r.start != 0 {
		t.Errorf("first candidate = %d, want 0 (clamped)", r.start)
	}
}

func TestWindowBothSidesIntersection(t *testing.T) {
	g := ddg.New("w3")
	a := g.AddNode("a", machine.OpIAdd) // lat 1
	b := g.AddNode("b", machine.OpIAdd)
	c := g.AddNode("c", machine.OpIAdd)
	g.AddTrueDep(a.ID, b.ID, 0)
	g.AddTrueDep(b.ID, c.ID, 0)
	st := newTestState(g, machine.TwoCluster(1, 1), 4)
	st.place(a.ID, 0, 0, nil)
	st.place(c.ID, 0, 6, nil)
	w := st.windowOf(b.ID)
	if w.early != 1 || w.late != 5 {
		t.Errorf("window = [%d, %d], want [1, 5]", w.early, w.late)
	}
	r := st.runOf(w)
	if last := r.start + (r.count-1)*r.step; r.start != 1 || r.step != 1 || last != 4 { // early..min(late, early+II-1)
		t.Errorf("candidates = %+v, want 1..4", r)
	}
}

func TestCandidateCyclesDescendForSuccOnly(t *testing.T) {
	g := ddg.New("w4")
	a := g.AddNode("a", machine.OpIAdd)
	b := g.AddNode("b", machine.OpIAdd)
	g.AddTrueDep(a.ID, b.ID, 0)
	st := newTestState(g, machine.TwoCluster(1, 1), 3)
	st.place(b.ID, 0, 10, nil)
	w := st.windowOf(a.ID)
	if !w.hasLate || w.late != 9 {
		t.Fatalf("late = %d (%v), want 9", w.late, w.hasLate)
	}
	if r := st.runOf(w); r.start != 9 || r.step != -1 || r.count < 2 {
		t.Errorf("candidates = %+v, want descending from 9", r)
	}
}

func TestProfitMetric(t *testing.T) {
	// p1, p2 -> n -> m (unscheduled): placing n in p1's cluster gains its
	// in-edge but leaks n's out-edge; the paper's formula:
	// profit = edges(cluster members -> n) - edges(n -> outside).
	g := ddg.New("p")
	p1 := g.AddNode("p1", machine.OpLoad)
	p2 := g.AddNode("p2", machine.OpLoad)
	n := g.AddNode("n", machine.OpFAdd)
	m := g.AddNode("m", machine.OpFAdd)
	g.AddTrueDep(p1.ID, n.ID, 0)
	g.AddTrueDep(p2.ID, n.ID, 0)
	g.AddTrueDep(n.ID, m.ID, 0)
	st := newTestState(g, machine.TwoCluster(2, 1), 4)
	st.place(p1.ID, 0, 0, nil)
	st.place(p2.ID, 1, 0, nil)
	// Cluster 0 holds p1: +1 for its edge into n, -1 for n->m (m outside).
	if got := st.profit(n.ID, 0); got != 0 {
		t.Errorf("profit(n, 0) = %d, want 0", got)
	}
	// A third cluster-free baseline: with no members, only the leak counts.
	st2 := newTestState(g, machine.TwoCluster(2, 1), 4)
	if got := st2.profit(n.ID, 0); got != -1 {
		t.Errorf("profit on empty cluster = %d, want -1", got)
	}
}

func TestProfitIgnoresOrderingEdges(t *testing.T) {
	g := ddg.New("p2")
	a := g.AddNode("a", machine.OpStore)
	b := g.AddNode("b", machine.OpStore)
	g.AddMemDep(a.ID, b.ID, 0)
	st := newTestState(g, machine.TwoCluster(1, 1), 2)
	st.place(a.ID, 0, 0, nil)
	if got := st.profit(b.ID, 0); got != 0 {
		t.Errorf("profit = %d, want 0 (memory edges move no data)", got)
	}
}

func TestCommNeedsMergesSameProducer(t *testing.T) {
	// Two operands from the same remote producer need ONE transfer.
	g := ddg.New("c")
	p := g.AddNode("p", machine.OpLoad)
	n := g.AddNode("n", machine.OpFMul)
	g.AddTrueDep(p.ID, n.ID, 0)
	g.AddTrueDep(p.ID, n.ID, 0)
	st := newTestState(g, machine.TwoCluster(1, 1), 4)
	st.place(p.ID, 0, 0, nil)
	needs := st.commNeeds(n.ID, 1, 8, nil)
	if len(needs) != 1 {
		t.Fatalf("needs = %d, want 1 (merged)", len(needs))
	}
	if needs[0].release != 2 || needs[0].deadline != 8 {
		t.Errorf("need = %+v, want release 2, deadline 8", needs[0])
	}
}

func TestCommNeedsSkipsSatisfied(t *testing.T) {
	g := ddg.New("c2")
	p := g.AddNode("p", machine.OpLoad)
	n1 := g.AddNode("n1", machine.OpFAdd)
	n2 := g.AddNode("n2", machine.OpFAdd)
	g.AddTrueDep(p.ID, n1.ID, 0)
	g.AddTrueDep(p.ID, n2.ID, 0)
	st := newTestState(g, machine.TwoCluster(2, 1), 6)
	st.place(p.ID, 0, 0, nil)
	// Place n1 on cluster 1 with its transfer.
	needs := st.commNeeds(n1.ID, 1, 5, nil)
	plan, ok := st.planComms(needs, nil)
	if !ok {
		t.Fatal("planComms failed")
	}
	st.place(n1.ID, 1, 5, plan)
	// n2 at a later cycle reuses the committed transfer: no new need.
	if needs2 := st.commNeeds(n2.ID, 1, 5, nil); len(needs2) != 0 {
		t.Errorf("needs2 = %v, want none (reuse)", needs2)
	}
	// n2 at an impossibly early cycle cannot reuse it (arrival too late).
	if needs3 := st.commNeeds(n2.ID, 1, 2, nil); len(needs3) != 1 {
		t.Errorf("needs3 = %v, want a fresh (infeasible) need", needs3)
	}
}

func TestPlanOneRespectsBusOccupancy(t *testing.T) {
	g := ddg.New("c3")
	p := g.AddNode("p", machine.OpLoad)
	g.AddNode("q", machine.OpLoad)
	st := newTestState(g, machine.TwoCluster(1, 2), 4) // 1 bus, latency 2
	st.place(p.ID, 0, 0, nil)
	// First transfer occupies slots 2,3.
	pc, ok := st.planOne(commNeed{producer: p.ID, from: 0, to: 1, release: 2, deadline: 8})
	if !ok || pc.start != 2 {
		t.Fatalf("first transfer = %+v (%v), want start 2", pc, ok)
	}
	// Second transfer in the same window must shift to slots 0,1.
	pc2, ok := st.planOne(commNeed{producer: 1, from: 0, to: 1, release: 2, deadline: 10})
	if !ok {
		t.Fatal("second transfer failed entirely")
	}
	if s := mod(pc2.start, 4); s != 0 {
		t.Errorf("second transfer slot = %d, want 0 (bus slots 2,3 busy)", s)
	}
}

func TestUnplaceRestoresState(t *testing.T) {
	g := ddg.SampleDotProduct()
	cfg := machine.TwoCluster(1, 1)
	st := newTestState(g, cfg, 3)
	before := len(st.transfers)
	st.place(0, 0, 0, nil)
	res, cause := st.try(2, 1) // mul on the other cluster: needs a transfer
	if cause != CauseNone {
		t.Fatalf("try failed: %v", cause)
	}
	st.commit(2, 1, res)
	st.unplace(2, res.plan)
	if st.placed(2) || st.cluster[2] != -1 {
		t.Error("unplace left the node placed")
	}
	if len(st.transfers) != before {
		t.Errorf("transfers = %d, want %d after rollback", len(st.transfers), before)
	}
	// The bus must be free again at the transfer's old slot.
	for b := 0; b < cfg.NBuses; b++ {
		for s := 0; s < 3; s++ {
			if !st.res.busBitFree(b, s) {
				t.Errorf("bus %d slot %d still reserved after unplace", b, s)
			}
		}
	}
}
