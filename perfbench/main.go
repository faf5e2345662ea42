// Command perfbench is the repository benchmark: it runs one seeded
// workload against the program, checks every output, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by name
// and unit.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Library layers are driven in-process through their public functions;
// service layers through built schedd/schedrouter processes over
// loopback.  perfbench/run.sh builds everything and runs it; see
// perfbench/README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what every workload run receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// bin holds the built schedd and schedrouter; workdir takes the
	// daemon logs.
	bin, workdir string
	// procs is the host's usable CPU count: worker pools, in-flight
	// requests and connections are all capped at it.
	procs int
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	// problems lists every failed check; a run with any is incorrect.
	problems []string
	metrics  map[string]float64
	// lines are extra human-readable lines (ladder tables, checks).
	lines []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// errInvalidRun marks a run whose numbers must not be reported (the
// load generator fell behind its own schedule).
type errInvalidRun struct{ reason string }

func (e *errInvalidRun) Error() string { return "invalid run: " + e.reason }

func main() {
	var (
		workload = flag.String("workload", "", "workload name ("+workloadNames()+")")
		seed     = flag.Int64("seed", 0, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		bin      = flag.String("bin", "", "directory holding the built schedd and schedrouter")
		workdir  = flag.String("workdir", "", "directory for daemon logs")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *workdir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0|1} -bin DIR -workdir DIR\n", workloadNames())
		os.Exit(2)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		bin:     *bin,
		workdir: *workdir,
		procs:   runtime.GOMAXPROCS(0),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := w.run(ctx, e)
	var invalid *errInvalidRun
	if errors.As(err, &invalid) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v; no result reported\n", w.name, err)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := render(rep, e.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// render selects the metric set the run prints — every end-to-end
// metric untraced, every per-layer metric traced — prints one line per
// metric, and fails if the workload did not produce one of them.
func render(rep *report, traced bool) (*resultOut, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := &resultOut{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		rep.line("metric %-32s %14.6g %s", d.Name, v, d.Unit)
	}
	return out, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}
