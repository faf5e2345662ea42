// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic SPECfp95 suite.
//
// Usage:
//
//	experiments [-run all|corpus|table1|table2|fig4|fig8|fig9|fig10|optgap|ablations] [-markdown] [-workers N] [-trim N] [-strategies a,b,c]
//
// With -markdown the tables are printed as GitHub Markdown (the format
// EXPERIMENTS.md records).  Compilations run through the concurrent
// pipeline (internal/pipeline); -workers sizes its pool (default
// GOMAXPROCS) and the cache statistics are printed to stderr at exit.
//
// -strategies overrides the Figure 8 strategy groups with any
// comma-separated registered unroll policies (e.g.
// "no_unroll,portfolio,sweep:4"), so a newly registered policy drops
// straight into the paper's headline comparison.
//
// -run corpus prints the workload's per-benchmark statistics (loops,
// mean body size, recurrences, loop-carried dependences, mean trip
// count); one loop's detail is vliwsched <bench.loopN>.
//
// -run optgap scores BSA against the exact branch-and-bound oracle
// (internal/exact) on every Table 1 configuration; it is the slowest
// artefact (minutes on the full corpus) and therefore NOT part of
// -run all — ask for it explicitly.  -trim N cuts every benchmark to
// its first N loops, and every artefact (corpus included) then covers
// the cut suite — the CI smoke uses it to keep the oracle sweep to
// seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	run := flag.String("run", "all", "which artefact to regenerate (all, corpus, table1, table2, fig4, fig8, fig9, fig10, optgap, ablations)")
	markdown := flag.Bool("markdown", false, "emit GitHub Markdown instead of ASCII")
	workers := flag.Int("workers", 0, "pipeline worker count (0 = GOMAXPROCS)")
	trim := flag.Int("trim", 0, "keep only the first N loops of every benchmark (0 = full corpus)")
	strategies := flag.String("strategies", "no_unroll,unroll_all,selective",
		"comma-separated registered unroll policies for the fig8 groups")
	flag.Parse()

	var fig8Strats []core.Strategy
	for _, name := range strings.Split(*strategies, ",") {
		s, err := core.ParseStrategy(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		fig8Strats = append(fig8Strats, s)
	}

	suite := experiments.NewSuiteWorkers(loadCorpus(*trim), *workers)
	emit := func(t *report.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t)
		}
	}

	want := func(name string) bool { return *run == "all" || *run == name }
	start := time.Now()

	if want("corpus") {
		emit(experiments.Corpus(suite.Benchmarks), nil)
	}
	if want("table1") {
		emit(experiments.Table1(), nil)
	}
	if want("fig4") {
		emit(suite.Fig4(2))
		emit(suite.Fig4(4))
	}
	if want("fig8") {
		for _, clusters := range []int{2, 4} {
			for _, strat := range fig8Strats {
				emit(suite.Fig8(clusters, strat))
			}
		}
	}
	if want("table2") {
		emit(experiments.Table2(), nil)
	}
	if want("fig9") {
		emit(suite.Fig9())
	}
	if want("fig10") {
		emit(suite.Fig10(2))
		emit(suite.Fig10(4))
	}
	// The oracle sweep takes minutes on the full corpus: explicit only,
	// never folded into -run all.
	if *run == "optgap" {
		emit(suite.OptGapTable(exact.Budget{}))
	}
	if want("ablations") {
		emit(suite.AblationPolicy())
		emit(suite.AblationOrdering())
		emit(suite.AblationUnrollFactor())
	}
	fmt.Fprintf(os.Stderr, "total time: %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "%v (%d workers)\n", suite.Pipe.Stats(), suite.Pipe.Workers())
}

// loadCorpus returns the full synthetic SPECfp95 suite, or every
// benchmark cut to trim loops when trim > 0.
func loadCorpus(trim int) []*corpus.Benchmark {
	if trim <= 0 {
		return corpus.SPECfp95()
	}
	var names []string
	for _, p := range corpus.Profiles() {
		names = append(names, p.Name)
	}
	return corpus.Trimmed(names, trim)
}
