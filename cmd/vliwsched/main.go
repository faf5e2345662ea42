// Command vliwsched schedules one loop on a chosen clustered VLIW
// configuration and prints the analysis, the modulo schedule, the
// emitted kernel and a simulated execution.  The loop is either a file
// in the textual IR or a loop of the synthetic SPECfp95 corpus named by
// its ref ("tomcatv.loop0"), the same name schedd accepts as loop_ref.
//
// Usage:
//
//	vliwsched [flags] loop.ir|bench.loopN
//
//	-config NAME                        a Table 1 machine: unified,
//	                                    2-cluster/B1/L1 ... 4-cluster/B2/L2
//	                                    (default 4-cluster/B1/L1)
//	-scheduler NAME                     any registered scheduler: bsa (default),
//	                                    ne (Nystrom-Eichenberger), exact, ...
//	-strategy NAME                      any registered unroll policy: no_unroll
//	                                    (default), unroll_all, selective,
//	                                    portfolio, sweep:<k>, ... (the legacy
//	                                    names none, all are aliases)
//	-stages                             print the per-stage compile telemetry
//	-dot                                print the DDG in Graphviz DOT and exit
//
// -config takes the machine_ref names schedd, experiments and the
// scheduler's own error text use.  Unknown -config, -scheduler and
// -strategy names fail with the valid list (for the last two, the same
// registry GET /v1/capabilities serves).  Compiling the whole
// corpus is cmd/experiments' job; its -run corpus prints the suite's
// per-benchmark statistics.
//
// Examples:
//
//	vliwsched -config 4-cluster/B1/L2 -strategy selective tomcatv.loop0
//	vliwsched -strategy portfolio -stages tomcatv.loop0
//	vliwsched -dot swim.loop2
//	vliwsched -config 2-cluster/B2/L2 loop.ir
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emit"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/vliwsim"
)

func main() {
	configName := flag.String("config", "4-cluster/B1/L1", "Table 1 machine name (unified, 2-cluster/B1/L1, ..., 4-cluster/B2/L2)")
	scheduler := flag.String("scheduler", "bsa", "registered scheduler name (bsa, ne, exact, ...)")
	strategy := flag.String("strategy", "", "registered unroll policy name (no_unroll, unroll_all, selective, portfolio, sweep:<k>, ...)")
	stages := flag.Bool("stages", false, "print the per-stage compile telemetry")
	dot := flag.Bool("dot", false, "print the dependence graph in DOT and exit")
	flag.Parse()

	opts := core.Options{}
	sch, err := core.ParseScheduler(*scheduler)
	if err != nil {
		fatal(err)
	}
	opts.Scheduler = sch
	if *strategy != "" {
		strat, err := core.ParseStrategy(*strategy)
		if err != nil {
			fatal(err)
		}
		opts.Strategy = strat
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vliwsched [flags] loop.ir|bench.loopN")
		flag.Usage()
		os.Exit(2)
	}
	loop, err := loadLoop(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(loop.Graph.Dot())
		return
	}

	cfg, err := configByName(*configName)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("loop %s: %d ops, %d edges, iters=%d",
		loop.Graph.Name, loop.Graph.NumNodes(), loop.Graph.NumEdges(), loop.Iters)
	if loop.Weight > 0 {
		fmt.Printf(", weight=%d", loop.Weight)
	}
	fmt.Println()
	fmt.Printf("machine: %s\n", cfg.String())
	fmt.Printf("ResMII=%d RecMII=%d MinII=%d\n\n",
		loop.Graph.ResMII(&cfg), loop.Graph.RecMII(), loop.Graph.MinII(&cfg))

	// The engine validates every schedule it returns (its validate
	// stage), so no re-check is needed here.
	res, err := core.Compile(loop.Graph, &cfg, &opts)
	if err != nil {
		fatal(err)
	}
	if opts.Strategy == core.SelectiveUnroll {
		fmt.Println("selective unrolling:", res.Decision)
	}
	if res.Exact != nil {
		fmt.Println(res.Exact)
	}
	if *stages {
		printStages(res)
	}
	fmt.Println(res.Schedule)
	fmt.Println(emit.Emit(res.Schedule))

	kIters := (loop.Iters + res.Factor - 1) / res.Factor
	sim, err := vliwsim.Run(res.Schedule, kIters)
	if err != nil {
		fatal(fmt.Errorf("simulation: %w", err))
	}
	fmt.Printf("simulated %d kernel iterations (%d original): %d cycles, %d ops, %d transfers, IPC %.2f\n",
		kIters, loop.Iters, sim.Cycles, sim.OpsExecuted, sim.TransfersExecuted, sim.IPC)
	fmt.Printf("register pressure per cluster: %v (capacity %d)\n", sim.MaxPressure, cfg.RegsPerCluster)
}

// loadLoop resolves the positional argument: an existing file is
// parsed as textual IR; otherwise the argument must be a corpus loop
// ref, looked up in the same index schedd resolves loop_ref against.
// Only corpus loops carry a weight.
func loadLoop(arg string) (*corpus.Loop, error) {
	src, err := os.ReadFile(arg)
	if err == nil {
		l, err := ir.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return &corpus.Loop{Graph: l.Graph, Iters: l.Iters}, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if l, ok := corpus.Index(corpus.SPECfp95())[arg]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("%q is neither an IR file nor a corpus loop ref (corpus loops are named bench.loopN, e.g. tomcatv.loop0)", arg)
}

// printStages renders the per-stage compile telemetry: where the
// compile spent its time, the II search it walked, and — for racing
// policies — what each candidate did.
func printStages(res *core.Result) {
	t := res.Stages
	if t == nil {
		return
	}
	fmt.Printf("stages (scheduler %s, policy %s", t.Scheduler, t.Policy)
	if t.Winner != "" {
		fmt.Printf(", winner %s", t.Winner)
	}
	fmt.Printf("): total %v\n", t.Total.Round(time.Microsecond))
	for _, s := range t.Stages {
		fmt.Printf("  %-9s %10v  x%d\n", s.Name, s.Duration.Round(time.Microsecond), s.Calls)
	}
	fmt.Printf("  II search: %d attempts, trajectory %v\n", t.Attempts, t.Trajectory)
	for _, c := range t.Candidates {
		switch {
		case c.Err != "":
			fmt.Printf("  candidate %-12s failed: %s\n", c.Strategy, c.Err)
		case c.Won:
			fmt.Printf("  candidate %-12s iteration II %.3f (winner)\n", c.Strategy, c.IterationII)
		default:
			fmt.Printf("  candidate %-12s iteration II %.3f\n", c.Strategy, c.IterationII)
		}
	}
}

// configByName resolves -config against the Table 1 names; an
// unknown name fails with the list.
func configByName(name string) (machine.Config, error) {
	if cfg, ok := machine.ConfigByName(name); ok {
		return cfg, nil
	}
	var names []string
	for _, c := range machine.Table1Configs() {
		names = append(names, c.Name)
	}
	return machine.Config{}, fmt.Errorf("unknown config %q (Table 1 names: %s)", name, strings.Join(names, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vliwsched:", err)
	os.Exit(1)
}
