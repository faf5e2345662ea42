package sched

import (
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/order"
)

// Micro-benchmarks for the scheduler hot path.  All report allocations:
// the inner loop (window scan, comm planning, incremental register
// check, place/unplace) is designed to be allocation-free in the steady
// state, and these benchmarks are the regression guard for that
// property.  scripts/bench_sched.sh folds them into BENCH_sched.json.

// benchConfigs is the per-machine sweep: the paper's three shapes at
// contrasting bus latencies.
var benchConfigs = []machine.Config{
	machine.Unified(),
	machine.TwoCluster(1, 1),
	machine.TwoCluster(2, 2),
	machine.FourCluster(1, 1),
	machine.FourCluster(1, 2),
}

// benchGraph is a deterministic 14-node ddg.Random body — dense enough
// to exercise transfers and register pressure on every machine.
func benchGraph() *ddg.Graph {
	g := ddg.Random(42, 14, 7)
	if g == nil {
		panic("bench graph generation failed")
	}
	return g
}

// BenchmarkBSA runs the full heuristic (MinII, SMS order, II search)
// per machine configuration.
func BenchmarkBSA(b *testing.B) {
	g := benchGraph()
	for i := range benchConfigs {
		cfg := benchConfigs[i]
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleGraph(g, &cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBSALargeII runs the full heuristic on loops unrolled ×4 on
// 4-cluster machines, the paper grid's costliest compiles: long
// unrolled bodies whose speculative register checks work on large
// modulo tables.  tomcatv.loop7 settles at II 43 on 4-cluster/B1/L2;
// fpppp.loop3 there and mgrid.loop4 on 4-cluster/B2/L2 never fit: their
// searches try IIs up to 1710 and 1029 before reporting a *Error.
func BenchmarkBSALargeII(b *testing.B) {
	loops := corpus.Index(corpus.SPECfp95())
	for _, bc := range []struct {
		ref string
		cfg machine.Config
		ii  int // 0: the search must fail
	}{
		{"tomcatv.loop7", machine.FourCluster(1, 2), 43},
		{"fpppp.loop3", machine.FourCluster(1, 2), 0},
		{"mgrid.loop4", machine.FourCluster(2, 2), 0},
	} {
		g := loops[bc.ref].Graph.Unroll(4)
		b.Run(bc.ref+"x4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := ScheduleGraph(g, &bc.cfg, nil)
				var serr *Error
				switch {
				case bc.ii == 0 && !errors.As(err, &serr):
					b.Fatalf("%s x4: err = %v, want *sched.Error", bc.ref, err)
				case bc.ii != 0 && (err != nil || s.II != bc.ii):
					b.Fatalf("%s x4: err = %v, want a schedule at II %d", bc.ref, err, bc.ii)
				}
			}
		})
	}
}

// BenchmarkValidate is the independent validator, the check every
// compile pays once, on a large finished schedule: fpppp.loop3
// unrolled ×4 (256 operations, 20 transfers) at II 41 on
// 4-cluster/B2/L1.  (On 4-cluster/B1/L1 that body has no schedule.)
func BenchmarkValidate(b *testing.B) {
	g := corpus.Index(corpus.SPECfp95())["fpppp.loop3"].Graph.Unroll(4)
	cfg := machine.FourCluster(2, 1)
	s, err := ScheduleGraph(g, &cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTryCommitAttempt is the try/commit hot path in isolation:
// one full runAttempt per iteration on a recycled state at a fixed
// feasible II — no MinII, ordering or Schedule construction.  This is
// the loop the incremental pressure table and the scratch buffers make
// allocation-free.
func BenchmarkTryCommitAttempt(b *testing.B) {
	g := benchGraph()
	for _, pick := range []int{0, 3} { // unified and 4-cluster/B1/L1
		cfg := benchConfigs[pick]
		s, err := ScheduleGraph(g, &cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		ord := order.SMS(g)
		b.Run(cfg.Name, func(b *testing.B) {
			st := newSchedState(g, &cfg)
			opts := &Options{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.reset(s.II)
				if cause, _ := runAttempt(st, ord, opts); cause != CauseNone {
					b.Fatalf("attempt failed at proven-feasible II %d", s.II)
				}
			}
		})
	}
}

// BenchmarkAttemptExpansion measures one exact-oracle-style expansion
// wave: reset, then greedily enumerate Choices and place the first for
// every node — the per-node cost the branch-and-bound search pays at
// every depth of its DFS.
func BenchmarkAttemptExpansion(b *testing.B) {
	g := benchGraph()
	cfg := machine.TwoCluster(1, 1)
	s, err := ScheduleGraph(g, &cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	a := NewAttempt(g, &cfg, s.II)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset(s.II)
		for n := 0; n < g.NumNodes(); n++ {
			chs := a.Choices(n, nil)
			if len(chs) == 0 {
				break
			}
			a.Place(n, chs[0])
		}
	}
}

// BenchmarkPlaceUnplace is the innermost speculative step by itself:
// place a node with a known-feasible placement, check fits, unplace.
func BenchmarkPlaceUnplace(b *testing.B) {
	g := benchGraph()
	cfg := machine.FourCluster(1, 1)
	s, err := ScheduleGraph(g, &cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	st := newSchedState(g, &cfg)
	st.reset(s.II)
	// Commit everything except the last node in SMS order, then
	// speculate on that one.
	ord := order.SMS(g)
	last := ord[len(ord)-1]
	for _, n := range ord[:len(ord)-1] {
		placedOne := false
		for c := 0; c < cfg.NClusters && !placedOne; c++ {
			if res, cause := st.try(n, c); cause == CauseNone {
				st.commit(n, c, res)
				placedOne = true
			}
		}
		if !placedOne {
			b.Fatalf("setup: node %d unplaceable at II %d", n, s.II)
		}
	}
	res, cause := st.try(last, s.Placements[last].Cluster)
	if cause != CauseNone {
		b.Fatalf("setup: last node unplaceable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.commit(last, s.Placements[last].Cluster, res)
		if !st.fits() {
			b.Fatal("known-feasible placement reported unfit")
		}
		st.unplace(last, res.plan)
	}
}
