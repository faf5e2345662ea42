package sched

import (
	"fmt"
	"sync/atomic"

	"repro/internal/regpress"
)

// pressureChecks, when enabled, cross-checks the incremental per-cluster
// pressure tables against the from-scratch regpress.Pressure oracle
// after every place and unplace, panicking with a diagnostic dump on the
// first divergence.  It turns every scheduling run — BSA, the exact
// oracle's DFS, the fuzzer — into a differential test of the incremental
// bookkeeping, at the cost of restoring the O(V+E) recompute it exists
// to verify.  Tests toggle it via DebugPressureChecks.
var pressureChecks = false

// DebugPressureChecks toggles the incremental-vs-oracle pressure
// verification on every place/unplace (development and test aid; the
// differential and fuzz tests rely on it).
func DebugPressureChecks(on bool) { pressureChecks = on }

// checkActNeeds asserts that the communication template (buildNodeTpl,
// with its satisfied-threshold skip rule) instantiates to exactly the
// direct per-cycle commNeeds output — order included.
func (st *state) checkActNeeds(n, c, t int) {
	want := st.commNeeds(n, c, t, nil)
	var got []commNeed
	nc := st.cfg.NClusters
	for i := range st.tplInBuf {
		tp := &st.tplInBuf[i]
		if tp.pc == c || t >= st.satInBuf[i*nc+c] {
			continue
		}
		got = append(got, commNeed{producer: tp.p, from: tp.pc, to: c,
			release: tp.rel, deadline: tp.dl + t})
	}
	for j := range st.tplOutBuf {
		tp := &st.tplOutBuf[j]
		if tp.mc == c || t <= st.satOutBuf[j] {
			continue
		}
		got = append(got, commNeed{producer: n, from: c, to: tp.mc,
			release: tp.rel + t, deadline: tp.dl})
	}
	if len(want) != len(got) {
		panic(fmt.Sprintf("sched: comm template divergence: node %d c=%d t=%d: %+v vs %+v",
			n, c, t, got, want))
	}
	for i := range want {
		if want[i] != got[i] {
			panic(fmt.Sprintf("sched: comm template divergence: node %d c=%d t=%d need %d: %+v vs %+v",
				n, c, t, i, got[i], want[i]))
		}
	}
}

// checkWindowSkip asserts that a cycle rejected by the template's
// feasibility interval really has no routable communication plan.
func (st *state) checkWindowSkip(n, c, t int) {
	needs := st.commNeeds(n, c, t, nil)
	if plan, ok := st.planComms(needs, nil); ok {
		st.releasePlan(plan)
		panic(fmt.Sprintf("sched: template window wrongly rejected node %d c=%d t=%d", n, c, t))
	}
}

// regSkipProbes counts the skipped cycles checkRegSkip re-probed up to
// the register check, so tests can tell the oracle ran.
var regSkipProbes atomic.Int64

// checkRegSkip asserts that the k run cycles regSkip skipped after a
// register failure at t all fail: each is re-probed exactly as
// tryCycles would have probed it.
func (st *state) checkRegSkip(n, c, t, k int) {
	class := st.fg.class[n]
	for j := 1; j <= k; j++ {
		tt := t + j*st.run.step
		if !st.res.fuFree(c, class, tt) || tt < st.tplMin[c] || tt > st.tplMax[c] {
			continue
		}
		plan, ok := st.planActs(n, c, tt, nil)
		if !ok {
			continue
		}
		regSkipProbes.Add(1)
		fits, _ := st.speculate(n, c, tt, plan)
		st.releasePlan(plan)
		if fits {
			panic(fmt.Sprintf("sched: register skip from t=%d wrongly rejected node %d c=%d t=%d (graph %s II=%d)",
				t, n, c, tt, st.g.Name, st.ii))
		}
	}
}

// headroomPicks counts the picks checkEarlyStop found below the top
// profit of the full candidate set — preferHeadroom passed over a
// cluster filled to the brim — so tests can tell that case ran.
var headroomPicks atomic.Int64

// checkEarlyStop asserts that runAttempt's profit-ordered probe picked
// what the full scan picks: it probes the clusters the probe skipped,
// restores ascending cluster order and reruns the selection over every
// candidate.
func (st *state) checkEarlyStop(n int, cands []candidate, skipped []int, chosen candidate, defCluster int) {
	profits := st.profits(n)
	full := append([]candidate(nil), cands...)
	for _, c := range skipped {
		if st.tryCycles(n, c, nil) == CauseNone {
			full = append(full, candidate{cluster: c, profit: profits[c]})
		}
	}
	sortByCluster(full)
	want := chooseByProfit(st, n, preferHeadroom(st, full), defCluster)
	if want != chosen {
		panic(fmt.Sprintf("sched: early-stopped probe of node %d picked %+v, full scan %+v (graph %s II=%d, candidates %+v)",
			n, chosen, want, st.g.Name, st.ii, full))
	}
	for _, c := range full {
		if c.profit > chosen.profit {
			headroomPicks.Add(1)
			break
		}
	}
}

// checkPressure asserts the invariant the incremental tables maintain:
// for every cluster, the table's slots equal regpress.Pressure of the
// lifetimes rebuilt from scratch, and the O(1) fits verdict matches the
// oracle's.
func (st *state) checkPressure(op string) {
	lts := st.referenceLifetimes()
	for c := range st.press {
		want := regpress.Pressure(lts[c], st.ii)
		got := st.press[c].Slots()
		for s := range want {
			if got[s] != want[s] {
				panic(fmt.Sprintf(
					"sched: pressure divergence after %s: graph %s II=%d cluster %d slot %d: incremental %v, oracle %v (lifetimes %v)",
					op, st.g.Name, st.ii, c, s, got, want, lts[c]))
			}
		}
		oracleFits := regpress.MaxLive(lts[c], st.ii) <= st.cfg.RegsPerCluster
		if st.press[c].Fits() != oracleFits {
			panic(fmt.Sprintf(
				"sched: fits divergence after %s: graph %s II=%d cluster %d: incremental %v, oracle %v",
				op, st.g.Name, st.ii, c, st.press[c].Fits(), oracleFits))
		}
	}
}
