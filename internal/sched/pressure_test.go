package sched

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/regpress"
)

// These tests enforce the invariant the incremental register-pressure
// tables must maintain: after every place and unplace, each cluster's
// table equals regpress.Pressure over the lifetimes rebuilt from scratch
// (state.referenceLifetimes, the old full-recompute implementation).
// DebugPressureChecks wires that comparison into place/unplace itself,
// so driving the real schedulers over the fuzz-seed corpus exercises the
// invariant at every single speculative placement BSA makes — the same
// differential guarantee that proves the refactor changed no schedules.

// pressureSeeds mirrors FuzzSchedule's committed seed corpus plus extra
// ddg.Random shapes.
var pressureSeeds = []struct {
	seed           uint64
	nNodes, nExtra uint8
}{
	{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0},
	{1, 6, 3}, {42, 10, 5}, {7, 14, 7}, {123, 9, 6},
	{5, 8, 2}, {6, 12, 6}, {9, 15, 7}, {11, 5, 1}, {13, 16, 4},
	{17, 7, 5}, {19, 11, 3}, {23, 13, 2}, {29, 10, 7}, {31, 6, 6},
}

func TestPressureInvariantOverFuzzCorpus(t *testing.T) {
	DebugPressureChecks(true)
	defer DebugPressureChecks(false)
	scheduled := 0
	for _, sd := range pressureSeeds {
		g := ddg.Random(sd.seed, sd.nNodes, sd.nExtra)
		if g == nil {
			continue
		}
		for i := range fuzzConfigs {
			cfg := fuzzConfigs[i]
			// checkPressure panics inside place/unplace on any divergence;
			// both successful and failed schedules exercise it.
			if s, err := ScheduleGraph(g, &cfg, nil); err == nil {
				scheduled++
				if err := Validate(s); err != nil {
					t.Fatalf("seed %+v on %s: invalid schedule: %v", sd, cfg.Name, err)
				}
			}
		}
	}
	if scheduled == 0 {
		t.Fatal("no seed scheduled anywhere; invariant test is vacuous")
	}
}

// TestPressureInvariantAttemptWalk drives the Attempt API the way the
// exact oracle does — enumerate, place, recurse, unplace — with the
// oracle comparison live, covering deep speculative stacks and rollback
// orders BSA itself never produces.
func TestPressureInvariantAttemptWalk(t *testing.T) {
	DebugPressureChecks(true)
	defer DebugPressureChecks(false)
	for _, sd := range pressureSeeds {
		g := ddg.Random(sd.seed, sd.nNodes, sd.nExtra)
		if g == nil || g.NumNodes() > 12 {
			continue
		}
		cfg := machine.TwoCluster(1, 1)
		ii := g.MinII(&cfg) + 2
		attemptWalk(NewAttempt(g, &cfg, ii), g.NumNodes(), 300)
	}
}

// attemptWalk enumerates, places, recurses and unplaces nodes 0..n-1 the
// way the exact oracle does, taking at most two branches per node and
// budget placements in all, so deep speculative stacks and varied
// rollback orders come under whatever checks are live.
func attemptWalk(a *Attempt, n, budget int) {
	var walk func(idx int)
	walk = func(idx int) {
		if idx == n || budget <= 0 {
			return
		}
		tried := 0
		for _, ch := range a.Choices(idx, nil) {
			if tried == 2 || budget <= 0 {
				break
			}
			tried++
			budget--
			a.Place(idx, ch)
			walk(idx + 1)
			a.Unplace(idx, ch)
		}
	}
	walk(0)
}

// TestAttemptMaxLiveMatchesSchedule cross-checks the Attempt's exposed
// pressure accessors against the finished Schedule's own MaxLive
// computation (Schedule.Lifetimes + regpress.MaxLive).
func TestAttemptMaxLiveMatchesSchedule(t *testing.T) {
	g := ddg.SampleDotProduct()
	cfg := machine.TwoCluster(1, 1)
	s, err := ScheduleGraph(g, &cfg, nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	// Rebuild the same placements through an Attempt.
	a := NewAttempt(g, &cfg, s.II)
	for _, n := range s.Placements {
		placedOne := false
		for _, ch := range a.Choices(n.Node, nil) {
			if ch.Cluster == n.Cluster {
				a.Place(n.Node, ch)
				placedOne = true
				break
			}
		}
		if !placedOne {
			t.Skipf("could not mirror placement of node %d", n.Node)
		}
	}
	if !a.Fits() {
		t.Error("mirrored attempt reports !Fits for a valid schedule")
	}
	rebuilt := a.Schedule()
	want := rebuilt.MaxLive()
	for c := 0; c < cfg.NClusters; c++ {
		if got := a.MaxLive(c); got != want[c] {
			t.Errorf("cluster %d: Attempt.MaxLive = %d, Schedule.MaxLive = %d", c, got, want[c])
		}
	}
}

// TestUndoLogBalances pins the undo-log discipline: a try that fails or
// succeeds must leave the log exactly where it started, and pressure
// must return to all-zero after unwinding every placement.
func TestUndoLogBalances(t *testing.T) {
	g := ddg.SampleFigure7()
	cfg := machine.FourCluster(1, 2)
	st := newState(g, &cfg, g.MinII(&cfg)+3)
	if depth := len(st.undo); depth != 0 {
		t.Fatalf("fresh state undo depth %d", depth)
	}
	type placedRec struct {
		node int
		res  tryResult
	}
	var placedStack []placedRec
	for n := 0; n < g.NumNodes(); n++ {
		before := len(st.undo)
		res, cause := st.try(n, n%cfg.NClusters)
		if cause != CauseNone {
			if len(st.undo) != before {
				t.Fatalf("failed try grew undo log: %d -> %d", before, len(st.undo))
			}
			continue
		}
		if len(st.undo) != before {
			t.Fatalf("successful try (pre-commit) grew undo log: %d -> %d", before, len(st.undo))
		}
		// Copy the plan: the keep buffer is recycled per cluster and this
		// test holds plans across later tries of the same cluster.
		res.plan = append([]plannedComm(nil), res.plan...)
		st.commit(n, n%cfg.NClusters, res)
		placedStack = append(placedStack, placedRec{node: n, res: res})
	}
	for i := len(placedStack) - 1; i >= 0; i-- {
		st.unplace(placedStack[i].node, placedStack[i].res.plan)
	}
	if len(st.undo) != 0 {
		t.Fatalf("undo depth %d after unwinding everything", len(st.undo))
	}
	for c := 0; c < cfg.NClusters; c++ {
		if st.press[c].Max() != 0 {
			t.Fatalf("cluster %d pressure %v nonzero after full unwind", c, st.press[c].Slots())
		}
	}
}

// TestResetReusesWithoutLeaking covers the epoch-based reset: a state
// recycled across IIs must behave exactly like a fresh one.
func TestResetReusesWithoutLeaking(t *testing.T) {
	g := ddg.SampleStencil()
	cfg := machine.TwoCluster(1, 1)
	st := newSchedState(g, &cfg)
	for _, ii := range []int{4, 3, 7, 3} {
		st.reset(ii)
		for n := 0; n < g.NumNodes(); n++ {
			if st.placed(n) {
				t.Fatalf("II=%d: node %d placed after reset", ii, n)
			}
		}
		if len(st.transfers) != 0 || len(st.undo) != 0 {
			t.Fatalf("II=%d: %d transfers, undo depth %d after reset", ii, len(st.transfers), len(st.undo))
		}
		for c := 0; c < cfg.NClusters; c++ {
			if st.press[c].II() != ii || st.press[c].Max() != 0 {
				t.Fatalf("II=%d: cluster %d table not reset (%v)", ii, c, st.press[c].Slots())
			}
		}
		// Place something so the next reset has state to clear.
		if res, cause := st.try(0, 0); cause == CauseNone {
			st.commit(0, 0, res)
		}
	}
}

// TestReferenceLifetimesMatchScheduleLifetimes ties the in-progress
// oracle (referenceLifetimes) to the public Schedule.Lifetimes model on
// a completed schedule, so the two cannot drift apart silently.
func TestReferenceLifetimesMatchScheduleLifetimes(t *testing.T) {
	g := ddg.SampleDotProduct()
	cfg := machine.FourCluster(2, 2)
	s, err := ScheduleGraph(g, &cfg, nil)
	if err != nil {
		t.Skipf("not schedulable: %v", err)
	}
	// Replay the schedule into a state via an Attempt mirror.
	a := NewAttempt(g, &cfg, s.II)
	for _, p := range s.Placements {
		ok := false
		for _, ch := range a.Choices(p.Node, nil) {
			if ch.Cluster == p.Cluster {
				a.Place(p.Node, ch)
				ok = true
				break
			}
		}
		if !ok {
			t.Skipf("cannot mirror node %d", p.Node)
		}
	}
	mirror := a.Schedule()
	ref := a.st.referenceLifetimes()
	pub := mirror.Lifetimes()
	for c := range ref {
		if regpress.MaxLive(ref[c], s.II) != regpress.MaxLive(pub[c], s.II) {
			t.Errorf("cluster %d: reference MaxLive %d != public %d",
				c, regpress.MaxLive(ref[c], s.II), regpress.MaxLive(pub[c], s.II))
		}
	}
}
