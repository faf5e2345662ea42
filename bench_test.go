// Benchmarks regenerating the paper's evaluation artefacts (one per
// table and figure, experiment IDs from DESIGN.md) plus the ablations
// and component micro-benchmarks.
//
// The figure-level benchmarks run a reduced three-benchmark suite per
// iteration so `go test -bench=.` finishes in minutes; the full ten-
// benchmark versions are regenerated by `go run ./cmd/experiments`.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/emit"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/unroll"
	"repro/internal/vliwsim"
)

// benchSuite builds a fresh reduced suite (no warm cache): tomcatv
// (recurrence-heavy), swim (parallel) and fpppp (huge bodies) with up to
// four loops each.
func benchSuite() *experiments.Suite {
	return experiments.NewSuiteWith(corpus.Trimmed([]string{"tomcatv", "swim", "fpppp"}, 4))
}

// E1: Figure 4 — relative IPC vs bus count, BSA vs N&E.

func BenchmarkFig4_2Cluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Fig4(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_4Cluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Fig4(4); err != nil {
			b.Fatal(err)
		}
	}
}

// E3: Figure 8 — per-benchmark IPC under the three unrolling strategies.

func benchmarkFig8(b *testing.B, clusters int, strat core.Strategy) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Fig8(clusters, strat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_2Cluster_NoUnroll(b *testing.B)  { benchmarkFig8(b, 2, core.NoUnroll) }
func BenchmarkFig8_2Cluster_Unroll(b *testing.B)    { benchmarkFig8(b, 2, core.UnrollAll) }
func BenchmarkFig8_2Cluster_Selective(b *testing.B) { benchmarkFig8(b, 2, core.SelectiveUnroll) }
func BenchmarkFig8_4Cluster_NoUnroll(b *testing.B)  { benchmarkFig8(b, 4, core.NoUnroll) }
func BenchmarkFig8_4Cluster_Unroll(b *testing.B)    { benchmarkFig8(b, 4, core.UnrollAll) }
func BenchmarkFig8_4Cluster_Selective(b *testing.B) { benchmarkFig8(b, 4, core.SelectiveUnroll) }

// E2/E4: Tables 1 and 2 are static; their benchmarks measure the
// generators themselves.

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1()
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2()
	}
}

// E5: Figure 9 — cycle-time-adjusted speedups.

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

// E6: Figure 10 — code-size accounting.

func BenchmarkFig10_2Cluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Fig10(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_4Cluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Fig10(4); err != nil {
			b.Fatal(err)
		}
	}
}

// A1-A3: ablations.

func BenchmarkAblationClusterChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.AblationPolicy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.AblationOrdering(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUnrollFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.AblationUnrollFactor(); err != nil {
			b.Fatal(err)
		}
	}
}

// Pipeline benchmarks: the trimmed suite's full compilation grid
// (every Table 1 configuration, no-unroll and selective) batched
// through internal/pipeline at 1, 2 and NumCPU workers.  Each
// iteration runs the batch cold and then warm on the same pipeline, so
// the reported cache statistics cover both a miss-only and a hit-only
// pass.

func pipelineRequests() []pipeline.Request {
	var loops []*corpus.Loop
	for _, b := range corpus.Trimmed([]string{"tomcatv", "swim"}, 3) {
		loops = append(loops, b.Loops...)
	}
	var reqs []pipeline.Request
	for _, cfg := range machine.Table1Configs() {
		for _, strat := range []core.Strategy{core.NoUnroll, core.SelectiveUnroll} {
			for _, l := range loops {
				reqs = append(reqs, pipeline.Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: strat}})
			}
		}
	}
	return reqs
}

func BenchmarkPipelineCompile(b *testing.B) {
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			reqs := pipelineRequests()
			var st pipeline.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pipeline.New(workers)
				for pass := 0; pass < 2; pass++ {
					for _, r := range p.CompileBatch(reqs) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
				st = p.Stats()
			}
			b.ReportMetric(float64(st.Hits), "hits")
			b.ReportMetric(float64(st.Misses), "misses")
			b.ReportMetric(float64(st.DedupJoins), "joins")
		})
	}
}

// Component micro-benchmarks: the scheduler and substrates on a
// representative mid-size loop.

func benchLoop() *ddg.Graph {
	return corpus.SPECfp95()[4].Loops[0].Graph // an mgrid stencil body
}

func BenchmarkScheduleBSAUnified(b *testing.B) {
	g := benchLoop()
	cfg := machine.Unified()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleGraph(g, &cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleBSA4Cluster(b *testing.B) {
	g := benchLoop()
	cfg := machine.FourCluster(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleGraph(g, &cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleNE4Cluster(b *testing.B) {
	g := benchLoop()
	cfg := machine.FourCluster(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assign.NystromEichenberger(g, &cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectiveUnroll4Cluster(b *testing.B) {
	g := benchLoop()
	cfg := machine.FourCluster(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unroll.Selective(g, &cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMSOrdering(b *testing.B) {
	g := benchLoop().Unroll(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.SMS(g)
	}
}

// BenchmarkUnrollTransform times the cold ×4 transform: each iteration
// unrolls a fresh clone (built with the timer stopped), so no shared
// unrolled graph answers.
func BenchmarkUnrollTransform(b *testing.B) {
	g := benchLoop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		c.Unroll(4)
	}
}

// BenchmarkUnrollShared times what every compile after the first pays
// for the ×4 body: the lookup of the loop's shared unrolled graph.
func BenchmarkUnrollShared(b *testing.B) {
	g := benchLoop()
	u := g.Unroll(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Unroll(4) != u {
			b.Fatal("the shared unrolled graph was rebuilt")
		}
	}
}

func BenchmarkRecMII(b *testing.B) {
	g := benchLoop().Unroll(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RecMII()
	}
}

func BenchmarkEmit(b *testing.B) {
	g := benchLoop()
	cfg := machine.FourCluster(2, 1)
	s, err := sched.ScheduleGraph(g, &cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit.Emit(s)
	}
}

func BenchmarkSimulate100Iters(b *testing.B) {
	g := benchLoop()
	cfg := machine.FourCluster(2, 1)
	s, err := sched.ScheduleGraph(g, &cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vliwsim.Run(s, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus.SPECfp95()
	}
}
