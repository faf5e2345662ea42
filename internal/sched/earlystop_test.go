package sched

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// TestEarlyStopKeepsHeadroomPick pins the case the profit-ordered probe
// must not stop early on: the highest-profit cluster fits the node only
// by filling its register file to the brim, so preferHeadroom drops it
// and a roomy cluster of lower profit wins.  Stopping at the first
// candidate of top profit would skip that cluster; under
// DebugPressureChecks every pick is re-made over the full candidate set
// (checkEarlyStop), so such a stop panics here.  The graph and machine
// were found by searching ddg.Random seeds on six-register files.
func TestEarlyStopKeepsHeadroomPick(t *testing.T) {
	DebugPressureChecks(true)
	defer DebugPressureChecks(false)

	cfg := machine.FourCluster(1, 1)
	cfg.RegsPerCluster = 6
	g := ddg.Random(0, 6, 0)
	before := headroomPicks.Load()
	s, err := ScheduleGraph(g, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(s); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if headroomPicks.Load() == before {
		t.Fatal("no pick passed over a brim-full higher-profit cluster: the test no longer pins the headroom case")
	}
}
