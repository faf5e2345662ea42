package experiments

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/timing"
)

// Table1 reproduces Table 1: the evaluated configurations and the
// operation latencies (the paper's table is OCR-damaged; latencies
// follow the SMS/ICTINEO papers as documented in DESIGN.md).
func Table1() *report.Table {
	t := report.New("Table 1: clustered VLIW configurations and latencies",
		"config", "clusters", "INT/cl", "FP/cl", "MEM/cl", "regs/cl", "total issue")
	for _, cfg := range []machine.Config{
		machine.Unified(), machine.TwoCluster(1, 1), machine.FourCluster(1, 1),
	} {
		t.AddRow(cfg.Name, cfg.NClusters,
			cfg.FUsPerCluster[machine.FUInteger],
			cfg.FUsPerCluster[machine.FUFloat],
			cfg.FUsPerCluster[machine.FUMemory],
			cfg.RegsPerCluster, cfg.TotalIssueWidth())
	}
	lat := report.New("Operation latencies (cycles)", "op", "fu", "latency")
	for c := machine.OpClass(0); c < machine.NumOpClasses; c++ {
		lat.AddRow(c.String(), c.FU().String(), c.Latency())
	}
	t.Note = lat.String()
	return t
}

// Table2 reproduces Table 2: per-configuration cycle times from the
// Palacharla delay model (0.18 um), for one and two buses.
func Table2() *report.Table {
	model := timing.DefaultModel()
	t := report.New("Table 2: cycle times (Palacharla model, 0.18um)",
		"config", "RF ports", "bypass (ps)", "RF access (ps)", "cycle (ps)")
	cfgs := []machine.Config{
		machine.Unified(),
		machine.TwoCluster(1, 1), machine.TwoCluster(2, 1),
		machine.FourCluster(1, 1), machine.FourCluster(2, 1),
	}
	for _, row := range model.Table2(cfgs) {
		t.AddRow(row.Config, row.Ports,
			fmt.Sprintf("%.0f", row.BypassPS),
			fmt.Sprintf("%.0f", row.RegFilePS),
			fmt.Sprintf("%.0f", row.CyclePS))
	}
	return t
}

// Corpus summarizes the workload itself, one row per benchmark: loop
// count, mean body size, recurrence cycles, loop-carried dependences
// and mean trip count.
func Corpus(suite []*corpus.Benchmark) *report.Table {
	t := report.New("Synthetic SPECfp95 suite",
		"benchmark", "loops", "avg ops", "recurrences", "loop-carried deps", "avg iters")
	for _, b := range suite {
		ops, recs, carried, iters := 0, 0, 0, 0
		for _, l := range b.Loops {
			ops += l.Ops()
			recs += len(l.Graph.Recurrences())
			carried += len(l.Graph.LoopCarried())
			iters += l.Iters
		}
		n := len(b.Loops)
		t.AddRow(b.Name, n, ops/n, recs, carried, iters/n)
	}
	return t
}
