// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) on the synthetic SPECfp95 suite:
//
//	Figure 4  relative IPC vs bus count/latency, BSA vs N&E (E1)
//	Table  1  machine configurations and latencies (E2)
//	Figure 8  per-benchmark IPC, three unrolling strategies (E3)
//	Table  2  Palacharla cycle times (E4)
//	Figure 9  cycle-time-adjusted speedups (E5)
//	Figure 10 code-size impact of unrolling (E6)
//
// plus the ablations DESIGN.md calls out (A1 cluster-choice policy, A2
// node ordering, A3 unroll factor).  Each driver returns a report.Table
// that cmd/experiments prints and EXPERIMENTS.md records.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Suite wraps the workload with a concurrent compilation pipeline:
// every figure reuses the same (loop, config, options) compilations,
// and each driver primes the cache by fanning its whole compilation
// grid across the pipeline's worker pool before building rows.
type Suite struct {
	Benchmarks []*corpus.Benchmark

	// Pipe is the shared compile cache and worker pool; callers may
	// read its Stats after a run.
	Pipe *pipeline.Pipeline
}

// NewSuiteWith uses a custom workload (tests use a trimmed one).
func NewSuiteWith(benchmarks []*corpus.Benchmark) *Suite {
	return &Suite{Benchmarks: benchmarks, Pipe: pipeline.New(0)}
}

// NewSuiteWorkers picks the pipeline pool size explicitly; workers <= 0
// means GOMAXPROCS.
func NewSuiteWorkers(benchmarks []*corpus.Benchmark, workers int) *Suite {
	return &Suite{Benchmarks: benchmarks, Pipe: pipeline.New(workers)}
}

// compile resolves one compilation through the pipeline (the unroll
// fallback lives there), adding the evaluation's error context.
func (s *Suite) compile(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
	res, err := s.Pipe.Compile(pipeline.Request{Loop: l, Cfg: *cfg, Opts: opts})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s on %s: %w", l.Bench, l.Graph.Name, cfg.Name, err)
	}
	return res, nil
}

// scenario pairs one machine with one option set; drivers enumerate
// their full scenario grid up front so prime can batch it.
type scenario struct {
	cfg  machine.Config
	opts core.Options
}

// prime fans every loop × scenario compilation across the pipeline's
// worker pool.  Errors are ignored here: they are cached, so the serial
// row-building path re-encounters them immediately and reports them
// with full context.
func (s *Suite) prime(scenarios []scenario) {
	var reqs []pipeline.Request
	for _, sc := range scenarios {
		for _, b := range s.Benchmarks {
			for _, l := range b.Loops {
				reqs = append(reqs, pipeline.Request{Loop: l, Cfg: sc.cfg, Opts: sc.opts})
			}
		}
	}
	s.Pipe.CompileBatch(reqs)
}

// benchIPC aggregates one benchmark's executed operations and cycles
// under the paper's model: per loop, (ceil(iters/U) + SC - 1) * II
// cycles and iters * ops useful operations, both scaled by the loop's
// invocation weight.
func (s *Suite) benchIPC(b *corpus.Benchmark, cfg *machine.Config, opts core.Options) (stats.Accum, error) {
	var acc stats.Accum
	for _, l := range b.Loops {
		res, err := s.compile(l, cfg, opts)
		if err != nil {
			return acc, err
		}
		kIters := (l.Iters + res.Factor - 1) / res.Factor
		cycles := int64(res.Schedule.Cycles(kIters)) * int64(l.Weight)
		ops := int64(l.Iters) * int64(l.Ops()) * int64(l.Weight)
		acc.Add(ops, cycles)
	}
	return acc, nil
}

// relIPCs returns each benchmark's IPC relative to its unified-machine
// IPC under the same strategy-less baseline (NoUnroll, BSA).
func (s *Suite) relIPCs(cfg *machine.Config, opts core.Options) ([]float64, error) {
	uni := machine.Unified()
	var rels []float64
	for _, b := range s.Benchmarks {
		base, err := s.benchIPC(b, &uni, core.Options{})
		if err != nil {
			return nil, err
		}
		acc, err := s.benchIPC(b, cfg, opts)
		if err != nil {
			return nil, err
		}
		rels = append(rels, acc.Relative(base))
	}
	return rels, nil
}

// clusterConfig builds the paper's clustered machine for a cluster
// count (2 or 4) with the given buses and latency.
func clusterConfig(clusters, buses, latency int) (machine.Config, error) {
	switch clusters {
	case 2:
		return machine.TwoCluster(buses, latency), nil
	case 4:
		return machine.FourCluster(buses, latency), nil
	default:
		return machine.Config{}, fmt.Errorf("experiments: no %d-cluster configuration in the paper", clusters)
	}
}
