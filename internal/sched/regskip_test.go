package sched

import (
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
)

// TestRegSkipOracle runs the scans regSkip shortens with the skip
// oracle live (DebugPressureChecks): every cycle a register certificate
// skips is re-probed through planActs and speculate, and a probe that
// would have fitted panics.  The failed unrolled searches of the paper
// grid (fpppp.loop3, mgrid.loop1 and mgrid.loop4 ×4 on the 4-cluster
// machines) are where the skips pay off — forward and backward runs,
// incoming and outgoing transfers, IIs up to 1710.  The FuzzSchedule
// seed corpus covers the small machines, and random bodies on register
// files of 4 and 6 registers put the certificate's edge cases — arcs
// that barely overflow — under the oracle.
func TestRegSkipOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("re-probes every skipped cycle of nine failed II searches")
	}
	DebugPressureChecks(true)
	defer DebugPressureChecks(false)

	before := regSkipProbes.Load()
	loops := corpus.Index(corpus.SPECfp95())
	for _, cfg := range []machine.Config{machine.FourCluster(1, 1), machine.FourCluster(1, 2), machine.FourCluster(2, 2)} {
		for _, ref := range []string{"fpppp.loop3", "mgrid.loop1", "mgrid.loop4"} {
			g := loops[ref].Graph.Unroll(4)
			s, err := ScheduleGraph(g, &cfg, nil)
			var serr *Error
			switch {
			case errors.As(err, &serr):
			case err != nil:
				t.Fatalf("%s x4 on %s: %v", ref, cfg.Name, err)
			default:
				if err := Validate(s); err != nil {
					t.Fatalf("%s x4 on %s: invalid schedule: %v", ref, cfg.Name, err)
				}
			}
		}
	}
	if regSkipProbes.Load() == before {
		t.Fatal("no skipped cycle reached the register check: the oracle is vacuous")
	}

	for _, sd := range fuzzScheduleSeeds {
		g := ddg.Random(sd.seed, sd.nNodes, sd.nExtra)
		if g == nil {
			continue
		}
		cfg := fuzzConfigs[int(sd.cfgPick)%len(fuzzConfigs)]
		if s, err := ScheduleGraph(g, &cfg, nil); err == nil {
			if err := Validate(s); err != nil {
				t.Fatalf("seed %+v on %s: invalid schedule: %v", sd, cfg.Name, err)
			}
		}
	}

	var tight []machine.Config
	for _, regs := range []int{4, 6} {
		for _, cfg := range []machine.Config{machine.TwoCluster(1, 1), machine.TwoCluster(1, 3),
			machine.FourCluster(1, 2), machine.FourCluster(2, 1), machine.FourCluster(1, 4)} {
			cfg.RegsPerCluster = regs
			tight = append(tight, cfg)
		}
	}
	for seed := uint64(0); seed < 40; seed++ {
		g := ddg.Random(seed, uint8(6+seed%20), uint8(seed%9))
		if g == nil {
			continue
		}
		for _, body := range []*ddg.Graph{g, g.Unroll(2)} {
			for i := range tight {
				if s, err := ScheduleGraph(body, &tight[i], &Options{MaxII: 200}); err == nil {
					if err := Validate(s); err != nil {
						t.Fatalf("%s on %s with %d registers: invalid schedule: %v",
							body.Name, tight[i].Name, tight[i].RegsPerCluster, err)
					}
				}
			}
		}
	}
}

// TestRegSkipOracleAttemptWalk runs the exact oracle's kind of search —
// Choices, Place, recurse, Unplace — with the skip oracle live, on
// register files of 4 and 6 registers where placements jam on
// pressure.  Choices enumerates through tryCycles, so the oracle's scans
// skip the cycles a register certificate rules out exactly as BSA's do,
// and every skipped cycle is re-probed here.
func TestRegSkipOracleAttemptWalk(t *testing.T) {
	DebugPressureChecks(true)
	defer DebugPressureChecks(false)

	before := regSkipProbes.Load()
	for _, regs := range []int{4, 6} {
		for _, cfg := range []machine.Config{machine.TwoCluster(1, 1), machine.FourCluster(1, 2)} {
			cfg.RegsPerCluster = regs
			for seed := uint64(0); seed < 20; seed++ {
				g := ddg.Random(seed, uint8(6+seed%8), uint8(seed%5))
				if g == nil {
					continue
				}
				attemptWalk(NewAttempt(g, &cfg, g.MinII(&cfg)+1), g.NumNodes(), 300)
			}
		}
	}
	if got := regSkipProbes.Load() - before; got == 0 {
		t.Fatal("no Choices scan reached a register skip: the oracle's enumeration bypasses tryCycles")
	}
}
