// CompileContext: the per-compilation state threaded through every
// stage, policy and scheduler-engine call.

package engine

import (
	"context"
	"time"

	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/machine"
	"repro/internal/sched"
)

// maxTrajectory bounds the recorded II trajectory; attempts keep
// counting past it, the list just stops growing (a 4-digit II sweep is
// telemetry nobody reads entry by entry).
const maxTrajectory = 128

// Context is the compilation context: the inputs, the resolved
// scheduler engine, the cancellation signal and the accumulating stage
// telemetry.  A Context belongs to one goroutine; racing policies give
// each candidate its own child Context and merge the winner's record
// back (see Child and Merge).
type Context struct {
	// Graph, Cfg and Opts are the compilation inputs.
	Graph *ddg.Graph
	Cfg   *machine.Config
	Opts  *Options
	// Engine is the resolved scheduler engine every Schedule call
	// dispatches to.
	Engine SchedulerEngine

	ctx context.Context

	stages     [4]Stage // canonical order; Name filled lazily
	attempts   int
	trajectory []int
	winner     string
	candidates []Candidate
}

func newContext(ctx context.Context, g *ddg.Graph, cfg *machine.Config, opts *Options, eng SchedulerEngine) *Context {
	return &Context{ctx: ctx, Graph: g, Cfg: cfg, Opts: opts, Engine: eng}
}

// Context returns the cancellation context.  Policies and engines must
// observe it at stage boundaries: an in-flight scheduler run is not
// interruptible, but nothing new starts once it is done.
func (cc *Context) Context() context.Context { return cc.ctx }

// Err returns the cancellation state.
func (cc *Context) Err() error { return cc.ctx.Err() }

// Child derives a candidate Context for a racing policy: same inputs
// and engine, its own cancellation signal, fresh telemetry, and the
// candidate strategy substituted into a copy of the options.  Children
// run concurrently; the unrolled graphs they schedule are the source
// graph's shared ones (ddg.Graph.Unroll), so a child reuses what the
// parent or a sibling already built.
func (cc *Context) Child(ctx context.Context, strat Strategy) *Context {
	opts := *cc.Opts
	opts.Strategy = strat
	return newContext(ctx, cc.Graph, cc.Cfg, &opts, cc.Engine)
}

// stageIndex maps a canonical stage to its slot.
func stageIndex(name StageName) int {
	switch name {
	case StageAnalyze:
		return 0
	case StageUnroll:
		return 1
	case StageSchedule:
		return 2
	default:
		return 3
	}
}

// addStage accounts d against one canonical stage.
func (cc *Context) addStage(name StageName, d time.Duration, calls int) {
	i := stageIndex(name)
	cc.stages[i].Duration += d
	cc.stages[i].Calls += calls
}

// stageDuration reads one stage's accumulated time (policies use it to
// subtract nested schedule time out of an unroll-stage measurement).
func (cc *Context) stageDuration(name StageName) time.Duration {
	return cc.stages[stageIndex(name)].Duration
}

// Unroll returns the factor-f unrolled graph (f == 1 returns the
// original), timed under the unroll stage.  The graph is the source
// graph's shared, immutable one: every compile of the loop with this
// factor schedules the same graph and its memoized analyses.
func (cc *Context) Unroll(f int) *ddg.Graph {
	if f <= 1 {
		return cc.Graph
	}
	start := time.Now()
	ug := cc.Graph.Unroll(f)
	cc.addStage(StageUnroll, time.Since(start), 1)
	return ug
}

// Schedule runs the resolved engine on g, timed under the schedule
// stage, recording the II-search trajectory of the run.  It fails fast
// with the context error when the compile has been cancelled.
func (cc *Context) Schedule(g *ddg.Graph) (*Run, error) {
	if err := cc.ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	run, err := cc.Engine.Schedule(cc, g)
	cc.addStage(StageSchedule, time.Since(start), 1)
	if err != nil {
		return nil, err
	}
	first := run.FirstII
	if first <= 0 {
		first = run.Schedule.II
	}
	for ii := first; ii <= run.Schedule.II; ii++ {
		cc.attempts++
		if len(cc.trajectory) < maxTrajectory {
			cc.trajectory = append(cc.trajectory, ii)
		}
	}
	return run, nil
}

// Merge folds a finished child's telemetry into cc: stage times and
// calls add up, the child's trajectory appends.  Racing policies merge
// only the winning candidate, so the stage invariant (durations sum to
// at most the compile's total wall time) survives parallelism.
func (cc *Context) Merge(child *Context) {
	for i := range cc.stages {
		cc.stages[i].Duration += child.stages[i].Duration
		cc.stages[i].Calls += child.stages[i].Calls
	}
	cc.attempts += child.attempts
	for _, ii := range child.trajectory {
		if len(cc.trajectory) < maxTrajectory {
			cc.trajectory = append(cc.trajectory, ii)
		}
	}
}

// setWinner records the winning candidate of a racing policy.
func (cc *Context) setWinner(name string) { cc.winner = name }

// addCandidate records one evaluated alternative.
func (cc *Context) addCandidate(c Candidate) { cc.candidates = append(cc.candidates, c) }

// telemetry assembles the final Telemetry block.
func (cc *Context) telemetry(scheduler, policy string, total time.Duration) *Telemetry {
	names := StageNames()
	stages := make([]Stage, len(names))
	for i, n := range names {
		stages[i] = cc.stages[i]
		stages[i].Name = n
	}
	return &Telemetry{
		Scheduler:  scheduler,
		Policy:     policy,
		Winner:     cc.winner,
		Total:      total,
		Stages:     stages,
		Attempts:   cc.attempts,
		Trajectory: cc.trajectory,
		Candidates: cc.candidates,
	}
}

// Run is one scheduler-engine invocation's outcome.
type Run struct {
	// Schedule is the produced modulo schedule.
	Schedule *sched.Schedule
	// Exact carries the oracle's proof metadata when the engine proves
	// bounds; nil for heuristic engines.
	Exact *exact.Result
	// FirstII is the first II the engine attempted (ForceII when
	// pinned, MinII otherwise); the II trajectory is the contiguous
	// range FirstII..Schedule.II, which is how every registered engine
	// searches.  0 means "only Schedule.II".
	FirstII int
}
