package sched

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// fuzzConfigs are the clustered machines the fuzzer schedules on: the
// paper's 2- and 4-cluster configurations at contrasting bus shapes.
var fuzzConfigs = []machine.Config{
	machine.TwoCluster(1, 1),
	machine.TwoCluster(2, 2),
	machine.FourCluster(1, 1),
	machine.FourCluster(2, 2),
}

// fuzzGraph builds a random small DDG via ddg.Random, which the
// BSA-vs-exact differential test also walks (see the package comment
// there for why the two share one graph family).
func fuzzGraph(seed uint64, nNodes, nExtra uint8) *ddg.Graph {
	return ddg.Random(seed, nNodes, nExtra)
}

// fuzzScheduleSeeds is FuzzSchedule's seed corpus: every sample graph,
// plus assorted random shapes.
var fuzzScheduleSeeds = []struct {
	seed                    uint64
	nNodes, nExtra, cfgPick uint8
}{
	{0, 0, 0, 0}, {1, 0, 0, 1}, {2, 0, 0, 2}, {3, 0, 0, 3}, {4, 0, 0, 0},
	{1, 6, 3, 0}, {42, 10, 5, 2}, {7, 14, 7, 1}, {123, 9, 6, 3},
}

// FuzzSchedule generates random small DDGs, schedules them on the
// paper's 2- and 4-cluster configurations, and asserts the independent
// validator's invariants (FU and bus occupancy, dependence distances,
// cross-cluster transfers, register pressure) never fire on a schedule
// the scheduler claims succeeded.  A scheduling failure (register file
// too small, unroutable communication) is a legitimate outcome, not a
// finding.
func FuzzSchedule(f *testing.F) {
	for _, sd := range fuzzScheduleSeeds {
		f.Add(sd.seed, sd.nNodes, sd.nExtra, sd.cfgPick)
	}

	f.Fuzz(func(t *testing.T, seed uint64, nNodes, nExtra, cfgPick uint8) {
		g := fuzzGraph(seed, nNodes, nExtra)
		if g == nil {
			t.Skip("generator produced an invalid graph")
		}
		cfg := fuzzConfigs[int(cfgPick)%len(fuzzConfigs)]
		// Verify the incremental pressure tables against the from-scratch
		// regpress oracle on every place/unplace the run makes.
		DebugPressureChecks(true)
		defer DebugPressureChecks(false)
		s, err := ScheduleGraph(g, &cfg, nil)
		if err != nil {
			t.Skip("graph not schedulable on this machine")
		}
		if err := Validate(s); err != nil {
			t.Fatalf("scheduler produced an invalid schedule on %s: %v\ngraph: %s",
				cfg.Name, err, g)
		}
		if s.II < s.MinII {
			t.Fatalf("II %d below MinII %d on %s", s.II, s.MinII, cfg.Name)
		}
	})
}
